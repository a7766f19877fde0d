package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"routetab/internal/serve"
)

// batchFunc answers one batch of lookups: the layer entry point a
// workload's clients drive.
type batchFunc func(pairs [][2]int, out []serve.Result) error

// batchPairs is the pairs in every batch a client sends, on every workload:
// the batch size of the repository's own traffic generator (the loadgen
// default), so the figures describe batches as the program's callers send
// them.
const batchPairs = 16

// answer is one recorded lookup result, kept for grading after the run.
type answer struct {
	pair [2]int
	res  serve.Result
}

// client is one closed-loop caller: it sends its next batch only when the
// previous one has returned, cycling through a fixed seeded pair list.
type client struct {
	pairs [][2]int
	call  batchFunc

	// last holds each slot's most recent answer. Only answers that differ
	// from it are appended to answers, so a long run keeps one copy of each
	// distinct answer per slot and snapshot, and every answer is still
	// graded: a repeat equals an answer that is.
	last    []serve.Result
	have    []bool
	answers []answer

	lat      []int64 // round trip of each batch sent inside the window, ns
	at       []int64 // when each of those batches was sent, ns after the window opened
	lookups  int64   // lookups sent inside the window
	total    int64   // lookups sent, warm-up included
	failed   int64   // lookups answered with an error or lost with their batch
	batchErr error   // the last error a whole batch failed with
}

func newClient(pairs [][2]int, call batchFunc) *client {
	return &client{
		pairs: pairs, call: call,
		last: make([]serve.Result, len(pairs)), have: make([]bool, len(pairs)),
	}
}

func (c *client) loop(wstart, wend time.Time) {
	out := make([]serve.Result, batchPairs)
	for pos := 0; ; pos = (pos + batchPairs) % len(c.pairs) {
		t0 := time.Now()
		if !t0.Before(wend) {
			return
		}
		p := c.pairs[pos : pos+batchPairs]
		err := c.call(p, out)
		t1 := time.Now()
		c.total += int64(batchPairs)
		if !t0.Before(wstart) {
			c.lat = append(c.lat, t1.Sub(t0).Nanoseconds())
			c.at = append(c.at, t0.Sub(wstart).Nanoseconds())
			c.lookups += int64(batchPairs)
		}
		if err != nil {
			c.failed += int64(batchPairs)
			c.batchErr = err
			continue
		}
		for i, r := range out {
			s := pos + i
			if r.Err != nil {
				c.failed++
			}
			if c.have[s] && c.last[s] == r {
				continue
			}
			c.have[s], c.last[s] = true, r
			c.answers = append(c.answers, answer{pair: p[i], res: r})
		}
	}
}

// slices is how many equal parts a window is cut into. Throughput and
// latency quantiles are taken per slice, and the run reports the mean of the
// middle half of the slices: a burst of load from elsewhere on a shared host
// moves one slice, not the run's figure, while the scheduler's slow swings
// between faster and slower phases are averaged rather than picked from.
const slices = 20

// tally sums the lookups the clients sent and lost, and reports any batch
// that failed whole.
func tally(workload string, clients []*client) (attempted, failed int64) {
	for _, c := range clients {
		attempted += c.total
		failed += c.failed
		if c.batchErr != nil {
			fmt.Fprintf(os.Stderr, "%s: batch error: %v\n", workload, c.batchErr)
		}
	}
	return attempted, failed
}

// loadStats summarises one measured window of a closed loop.
type loadStats struct {
	qps      float64
	p50us    float64
	p90us    float64
	lookups  int64
	gcCycles uint32
}

// runWindow runs every client for warm-up plus window and reports the
// window. Each client's per-window fields are reset first; its recorded
// answers carry over. beside, if set, runs alongside the clients over the
// same window (the churn writer).
func runWindow(clients []*client, warm, window time.Duration, beside func(wstart, wend time.Time)) loadStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	wstart := start.Add(warm)
	wend := wstart.Add(window)
	var wg sync.WaitGroup
	if beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside(wstart, wend)
		}()
	}
	for _, c := range clients {
		c.lat, c.at, c.lookups = c.lat[:0], c.at[:0], 0
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(wstart, wend)
		}(c)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms)

	st := loadStats{gcCycles: ms.NumGC - gc0}
	sliceLat := make([][]int64, slices)
	sliceLookups := make([]int64, slices)
	for _, c := range clients {
		st.lookups += c.lookups
		for i, l := range c.lat {
			k := int(c.at[i] * slices / window.Nanoseconds())
			sliceLat[k] = append(sliceLat[k], l)
			sliceLookups[k] += int64(batchPairs)
		}
	}
	var qps, p50, p90 []float64
	for k, lat := range sliceLat {
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		qps = append(qps, float64(sliceLookups[k])/(window.Seconds()/slices))
		p50 = append(p50, quantile(lat, 0.5)/1e3)
		p90 = append(p90, quantile(lat, 0.9)/1e3)
	}
	st.qps, st.p50us, st.p90us = midmean(qps), midmean(p50), midmean(p90)
	return st
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i])*(1-frac) + float64(xs[i+1])*frac
}

// midmean returns the mean of the middle half of xs, the values between its
// first and third quartiles (xs is reordered).
func midmean(xs []float64) float64 {
	if len(xs) < 4 {
		return median(xs)
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	sum := 0.0
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
