package main

import (
	"fmt"
	"sort"
	"sync"

	"routetab/internal/serve"
)

// verdict collects grading failures; the first few are kept for the report.
type verdict struct {
	mu     sync.Mutex
	graded int64
	bad    int64
	first  []error
}

func (v *verdict) fail(err error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.bad++
	if len(v.first) < 5 {
		v.first = append(v.first, err)
	}
}

func (v *verdict) ok() bool { return v.bad == 0 }

// gradeFunc checks one answer against d(·, dst) in row.
type gradeFunc func(v *view, row []uint8, src, dst int, r serve.Result) error

func collect(clients []*client) []answer {
	var all []answer
	for _, c := range clients {
		all = append(all, c.answers...)
	}
	return all
}

func distinctDsts(answers []answer, more ...[2]int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(d int) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, a := range answers {
		add(a.pair[1])
	}
	for _, p := range more {
		add(p[1])
	}
	sort.Ints(out)
	return out
}

// gradeStatic grades answers served while the topology stood still: every
// answer must come from snapshot seq and pass grade against rows.
func gradeStatic(vd *verdict, v *view, rows map[int][]uint8, answers []answer, seq uint64, grade gradeFunc) {
	for _, a := range answers {
		if a.res.Err != nil {
			continue // counted as a failed operation, not graded
		}
		vd.graded++
		if a.res.Seq != seq {
			vd.fail(fmt.Errorf("%d→%d: answered from seq %d, only seq %d was ever served", a.pair[0], a.pair[1], a.res.Seq, seq))
			continue
		}
		if err := grade(v, rows[a.pair[1]], a.pair[0], a.pair[1], a.res); err != nil {
			vd.fail(err)
		}
	}
}

// gradeBySeq grades answers served under churn against the topology of the
// snapshot that answered each one: base plus the edges outstanding after
// Seq−1 flips (seq 1 is the initial build).
func gradeBySeq(vd *verdict, base *topo, outAfter [][][2]int, answers []answer, grade gradeFunc, workers int) {
	bySeq := map[uint64][]answer{}
	for _, a := range answers {
		if a.res.Err != nil {
			continue
		}
		vd.graded++
		bySeq[a.res.Seq] = append(bySeq[a.res.Seq], a)
	}
	seqs := make([]uint64, 0, len(bySeq))
	for s := range bySeq {
		seqs = append(seqs, s)
	}
	next := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				group := bySeq[s]
				if s < 1 || s > uint64(len(outAfter)) {
					vd.fail(fmt.Errorf("%d answers name seq %d, but only seqs 1..%d were published", len(group), s, len(outAfter)))
					continue
				}
				v := viewWith(base, outAfter[s-1])
				rows, err := v.rows(distinctDsts(group), 1)
				if err != nil {
					vd.fail(err)
					continue
				}
				for _, a := range group {
					if err := grade(v, rows[a.pair[1]], a.pair[0], a.pair[1], a.res); err != nil {
						vd.fail(fmt.Errorf("seq %d: %w", s, err))
					}
				}
			}
		}()
	}
	for _, s := range seqs {
		next <- s
	}
	close(next)
	wg.Wait()
}

// viewWith is base plus the added edges.
func viewWith(base *topo, added [][2]int) *view {
	v := &view{t: base}
	if len(added) == 0 {
		return v
	}
	v.extra = make([][]int32, base.n+1)
	for _, e := range added {
		v.extra[e[0]] = append(v.extra[e[0]], int32(e[1]))
		v.extra[e[1]] = append(v.extra[e[1]], int32(e[0]))
	}
	return v
}
