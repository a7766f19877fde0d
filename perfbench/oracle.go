package main

import (
	"errors"
	"fmt"
	"sync"

	"routetab/internal/graph"
	"routetab/internal/serve"
)

// unreached marks a node the breadth-first search did not reach.
const unreached = 255

// topo is the benchmark's own copy of a topology: sorted neighbour lists in
// CSR form, read once from the generated graph. Distances are computed here
// by breadth-first search and never taken from the program's own distance
// code, so a fault there cannot hide behind a matching fault in the grader.
type topo struct {
	n   int
	off []int32 // node u's neighbours are nbr[off[u]:off[u+1]], u in 1..n
	nbr []int32
}

func newTopo(g *graph.Graph) *topo {
	n := g.N()
	t := &topo{n: n, off: make([]int32, n+2), nbr: make([]int32, 0, 2*g.M())}
	for u := 1; u <= n; u++ {
		t.off[u] = int32(len(t.nbr))
		for _, v := range g.Neighbors(u) {
			t.nbr = append(t.nbr, int32(v))
		}
	}
	t.off[n+1] = int32(len(t.nbr))
	return t
}

func (t *topo) neighbours(u int) []int32 { return t.nbr[t.off[u]:t.off[u+1]] }

func (t *topo) adjacent(u, v int) bool {
	if u < 1 || u > t.n {
		return false
	}
	ns := t.neighbours(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ns[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && int(ns[lo]) == v
}

// view is a topology as one snapshot saw it: the base graph plus the edges a
// churn writer had added and not yet removed (extra is nil for a static
// graph). Base edges are never removed by any workload, so base ∪ extra is
// the whole topology.
type view struct {
	t     *topo
	extra [][]int32 // extra[u]: u's neighbours over added edges (len n+1)
}

func (v *view) adjacent(u, w int) bool {
	if v.t.adjacent(u, w) {
		return true
	}
	if v.extra == nil || u < 1 || u > v.t.n {
		return false
	}
	for _, x := range v.extra[u] {
		if int(x) == w {
			return true
		}
	}
	return false
}

// bfs fills dist[u] with the hop distance from root to u (unreached if
// none); dist and queue must have room for n+1 entries.
func (v *view) bfs(root int, dist []uint8, queue []int32) error {
	for i := range dist {
		dist[i] = unreached
	}
	dist[root] = 0
	queue = append(queue[:0], int32(root))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		if du+1 == unreached {
			return fmt.Errorf("oracle: distance from %d exceeds %d hops", root, unreached-1)
		}
		for _, w := range v.t.neighbours(int(u)) {
			if dist[w] == unreached {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
		if v.extra != nil {
			for _, w := range v.extra[u] {
				if dist[w] == unreached {
					dist[w] = du + 1
					queue = append(queue, w)
				}
			}
		}
	}
	return nil
}

// rows returns dist rows rooted at every node in roots (rows[r][u] = d(u, r),
// the graph being undirected), computed on workers goroutines.
func (v *view) rows(roots []int, workers int) (map[int][]uint8, error) {
	out := make(map[int][]uint8, len(roots))
	for _, r := range roots {
		out[r] = make([]uint8, v.t.n+1)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			queue := make([]int32, 0, v.t.n+1)
			for r := range next {
				if err := v.bfs(r, out[r], queue); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for _, r := range roots {
		next <- r
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// gradeExact checks a shortest-path answer (fulltable on the full tier):
// Next is a neighbour of src one hop closer to dst, and Dist and NextDist are
// d(src, dst) and d(Next, dst). row holds d(·, dst).
func gradeExact(v *view, row []uint8, src, dst int, r serve.Result) error {
	if err := gradeNeighbour(v, row, src, dst, r); err != nil {
		return err
	}
	d, nd := int(row[src]), int(row[r.Next])
	if nd != d-1 {
		return fmt.Errorf("%d→%d: next hop %d is at distance %d, want %d", src, dst, r.Next, nd, d-1)
	}
	if r.Dist != d || r.NextDist != nd {
		return fmt.Errorf("%d→%d: reported distances %d, %d; oracle says %d, %d", src, dst, r.Dist, r.NextDist, d, nd)
	}
	return nil
}

// gradeStretch3 checks a landmark answer against the stretch-3 bound: Next is
// a neighbour of src, d ≤ Dist ≤ 3d, and NextDist, an upper bound on
// d(Next, dst), is not below it. (A shard's tables cannot bound estimates
// from sources it does not own, so NextDist of a foreign next hop may exceed
// three times the distance.) A neighbour is at most d+1 ≤ 3d−1 hops from
// dst, so the neighbour check also keeps the rest of the route within 3d−1;
// that a whole route arrives within 3d hops is checked by walking it.
func gradeStretch3(v *view, row []uint8, src, dst int, r serve.Result) error {
	if err := gradeNeighbour(v, row, src, dst, r); err != nil {
		return err
	}
	d, nd := int(row[src]), int(row[r.Next])
	if r.Dist < d || r.Dist > 3*d {
		return fmt.Errorf("%d→%d: reported distance %d outside [%d, %d]", src, dst, r.Dist, d, 3*d)
	}
	if r.NextDist < nd {
		return fmt.Errorf("%d→%d: reported next-hop distance %d below the true %d", src, dst, r.NextDist, nd)
	}
	return nil
}

// gradeStretch3Whole is gradeStretch3 for tables that hold every source's
// rows (tables-churn): there NextDist is the scheme's estimate of
// d(Next, dst), which the landmark scheme bounds by 3·d(Next, dst), so it is
// held to that bound too.
func gradeStretch3Whole(v *view, row []uint8, src, dst int, r serve.Result) error {
	if err := gradeStretch3(v, row, src, dst, r); err != nil {
		return err
	}
	if nd := int(row[r.Next]); r.NextDist > 3*nd {
		return fmt.Errorf("%d→%d: reported next-hop distance %d above 3·%d", src, dst, r.NextDist, nd)
	}
	return nil
}

func gradeNeighbour(v *view, row []uint8, src, dst int, r serve.Result) error {
	if row[src] == unreached || row[src] == 0 {
		return fmt.Errorf("%d→%d: oracle distance %d admits no next hop", src, dst, row[src])
	}
	if !v.adjacent(src, r.Next) {
		return fmt.Errorf("%d→%d: next hop %d is not a neighbour of %d", src, dst, r.Next, src)
	}
	return nil
}
