// Command perfbench is routetab's benchmark. One process runs one seeded
// workload as a closed loop, grades every answer against its own
// breadth-first-search oracle, and prints one JSON result line: end-to-end
// metrics in a plain run, per-layer metrics in a traced run (-trace 1). See
// README.md for the workloads, the metrics and what each layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"routetab/internal/serve"
)

// config is one run's settings, all taken from the command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the spans file
	clients  int    // one per CPU: full-wire's callers, the oracle's workers
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is the result line.
type outcome struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

var workloads = map[string]func(config) (*outcome, error){
	"full-wire":     runFullWire,
	"sharded-front": runShardedFront,
	"tables-churn":  runTablesChurn,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints the stamp and result
// lines. Diagnostics (batch errors, wrong answers) go to standard error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "full-wire, sharded-front or tables-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is made from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory the spans file is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload full-wire|sharded-front|tables-churn, -seconds ≥ 1, -trace 0|1\n")
		return 2
	}
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	if cfg.trace {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	wakeCPUs()
	before := hostRef()
	steal0, stealOK := hostSteal()
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// The stamp is not a metric: it tells drift of a shared host apart from a
	// change in the program.
	fields := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"host_ref_mops_before": before, "host_ref_mops_after": hostRef(),
	}
	if steal1, ok := hostSteal(); ok && stealOK {
		fields["host_steal_s"] = math.Round((steal1-steal0)*100) / 100
	}
	stamp, _ := json.Marshal(map[string]any{"stamp": fields})
	fmt.Fprintln(stdout, string(stamp))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// wakeCPUs keeps every CPU busy for a second before anything is timed. A
// virtual CPU that sat idle can run the first second of work at about half
// speed, which would otherwise land on the set-up time.
func wakeCPUs() {
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < time.Second; {
				spin(100_000)
			}
		}()
	}
	wg.Wait()
}

// spin runs iters rounds of an xorshift step, calling nothing else.
func spin(iters int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// hostRef times a fixed integer loop that calls nothing in the program and
// returns its speed in millions of iterations per second.
func hostRef() float64 {
	const iters = 20_000_000
	t0 := time.Now()
	x := spin(iters)
	el := time.Since(t0).Seconds()
	if x == 0 { // keeps the loop from being optimised away
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return iters / el / 1e6
}

// hostSteal reads the time the hypervisor has kept this machine's virtual
// CPUs from running, summed over them, in seconds: the steal column of the
// cpu line of /proc/stat, in USER_HZ ticks of 10 ms. ok is false where there
// is no such file.
func hostSteal() (seconds float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(ticks) / 100, true
}

// heapLiveMiB forces a collection and reads the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// genPairs draws count uniform (src, dst) pairs with src ≠ dst over 1..n.
func genPairs(rng *rand.Rand, n, count int) [][2]int {
	pairs := make([][2]int, count)
	for i := range pairs {
		s := rng.Intn(n) + 1
		d := rng.Intn(n-1) + 1
		if d >= s {
			d++
		}
		pairs[i] = [2]int{s, d}
	}
	return pairs
}

// seeds derives the independent random streams of one run from its seed.
type seeds struct{ graph, pairs, flips int64 }

func deriveSeeds(seed int64) seeds {
	r := rand.New(rand.NewSource(seed))
	return seeds{graph: r.Int63(), pairs: r.Int63(), flips: r.Int63()}
}

// medianSetup times setup reps times and keeps the last deployment; every
// earlier one is torn down. The median stands for the run's set-up time.
func medianSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		dep   T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(dep)
		}
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		dep = d
	}
	return dep, median(times), nil
}

// windows splits the run: a warm-up that fills caches and finishes lazy
// set-up, then the measured window.
func windows(cfg config) (warm, window time.Duration) {
	window = time.Duration(cfg.seconds) * time.Second
	warm = window / 10
	if warm > time.Second {
		warm = time.Second
	}
	return warm, window
}

// serverTotals sums the servers' per-lookup service time and batch-size
// histograms (read from Server.Metrics) so a window's deltas can be taken.
type serverTotals struct {
	svcSum, svcCount     float64
	pairsSum, batchCount float64
}

func readServers(servers []*serve.Server) serverTotals {
	var t serverTotals
	for _, s := range servers {
		reg := s.Metrics()
		svc := reg.Histogram("lookup_ns", nil)
		bp := reg.Histogram("serve_batch_pairs", nil)
		t.svcSum += float64(svc.Sum())
		t.svcCount += float64(svc.Count())
		t.pairsSum += float64(bp.Sum())
		t.batchCount += float64(bp.Count())
	}
	return t
}

// since returns the mean per-lookup service time and the mean pairs per
// worker wake-up between two readings.
func (t serverTotals) since(prev serverTotals) (nsPerLookup, pairsPerBatch float64) {
	if c := t.svcCount - prev.svcCount; c > 0 {
		nsPerLookup = (t.svcSum - prev.svcSum) / c
	}
	if c := t.batchCount - prev.batchCount; c > 0 {
		pairsPerBatch = (t.pairsSum - prev.pairsSum) / c
	}
	return nsPerLookup, pairsPerBatch
}

func spansPath(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

// setupReps is how many times a run sets its deployment up; the median
// set-up time is reported.
const setupReps = 7

// spanLimit bounds the spans one traced run keeps in memory.
const spanLimit = 100_000

// setLookupMetrics reports a plain run's closed-loop figures.
func setLookupMetrics(m metricSet, st loadStats) {
	m.set("lookup_qps", st.qps, "1/s")
	m.set("lookup_p50_us", st.p50us, "us")
	m.set("lookup_p90_us", st.p90us, "us")
}

// setServerMetrics reports the servers' own figures over the traced window.
func setServerMetrics(m metricSet, now, before serverTotals) {
	ns, pairs := now.since(before)
	m.set("server.batch_ns_per_lookup", ns, "ns")
	m.set("server.mean_batch_pairs", pairs, "count")
}

// setLoadLayerMetrics reports what the untraced half of a traced run gives,
// and the tracing overhead: the traced requests named root against the
// untraced batches sent beside them.
func setLoadLayerMetrics(m metricSet, plain loadStats, tr *tracer, root string) {
	gc := 0.0
	if plain.lookups > 0 {
		gc = float64(plain.gcCycles) / float64(plain.lookups) * 1e6
	}
	m.set("gc.cycles_per_mlookup", gc, "count")
	m.set("trace.overhead_pct", tr.overheadPct(root), "%")
}

// report prints the first grading failures and says whether there were none.
func report(vd *verdict, name string) bool {
	for _, err := range vd.first {
		fmt.Fprintf(os.Stderr, "%s: wrong answer: %v\n", name, err)
	}
	if vd.bad > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d of %d graded answers wrong\n", name, vd.bad, vd.graded)
	}
	if vd.graded == 0 {
		fmt.Fprintf(os.Stderr, "%s: no answer was graded\n", name)
		return false
	}
	return vd.ok()
}
