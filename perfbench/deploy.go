package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// maxOutstanding is how many of its own edges the churn writer keeps added
// before it starts removing the oldest.
const maxOutstanding = 8

// flip is one topology mutation: add or remove the edge uv.
type flip struct {
	u, v int
	add  bool
}

func (f flip) apply(g *graph.Graph) error {
	if f.add {
		return g.AddEdge(f.u, f.v)
	}
	return g.RemoveEdge(f.u, f.v)
}

// flipper makes seeded edge flips over a base topology. It adds an absent
// edge, and once limit of its edges are outstanding it removes the oldest one
// it added. Base edges are never removed, so the graph stays connected and
// within limit edges of the base size.
type flipper struct {
	rng   *rand.Rand
	base  *topo
	limit int
	out   [][2]int // added edges still present, oldest first
}

func newFlipper(seed int64, base *topo, limit int) *flipper {
	return &flipper{rng: rand.New(rand.NewSource(seed)), base: base, limit: limit}
}

func (fl *flipper) next() flip {
	if len(fl.out) == fl.limit {
		e := fl.out[0]
		fl.out = append(fl.out[:0], fl.out[1:]...)
		return flip{u: e[0], v: e[1]}
	}
	n := fl.base.n
	for {
		u, v := fl.rng.Intn(n)+1, fl.rng.Intn(n)+1
		if u == v || fl.base.adjacent(u, v) || fl.outstanding(u, v) {
			continue
		}
		if u > v {
			u, v = v, u
		}
		fl.out = append(fl.out, [2]int{u, v})
		return flip{u: u, v: v, add: true}
	}
}

func (fl *flipper) outstanding(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	for _, e := range fl.out {
		if e == [2]int{u, v} {
			return true
		}
	}
	return false
}

// snapshotEdges returns a copy of the outstanding added edges.
func (fl *flipper) snapshotEdges() [][2]int { return append([][2]int(nil), fl.out...) }

// timedSource wraps a replica's replication feed: it times each WAL fetch and
// keeps the last batch and state it passed on, so their encoded sizes can be
// counted outside the timed path.
type timedSource struct {
	cluster.Source
	fetch time.Duration
	batch *cluster.WALBatch
	state *cluster.State
}

func (s *timedSource) FetchWAL(after uint64) (*cluster.WALBatch, error) {
	t0 := time.Now()
	b, err := s.Source.FetchWAL(after)
	s.fetch = time.Since(t0)
	s.batch = b
	return b, err
}

func (s *timedSource) FetchState() (*cluster.State, error) {
	st, err := s.Source.FetchState()
	s.state = st
	return st, err
}

// replicated is a tables-tier landmark primary with one replica whose Sync
// the caller drives, on an in-memory WAL.
type replicated struct {
	eng *serve.Engine
	srv *serve.Server
	p   *cluster.Primary
	src *timedSource
	r   *cluster.Replica

	engineS, joinS float64
}

func newReplicated(g *graph.Graph) (*replicated, error) {
	t0 := time.Now()
	eng, err := serve.NewTieredEngine(g, "landmark")
	if err != nil {
		return nil, err
	}
	rp := &replicated{eng: eng, srv: serve.NewServer(eng, serve.ServerOptions{})}
	rp.engineS = time.Since(t0).Seconds()
	if rp.p, err = cluster.NewPrimary(eng, rp.srv, nil, 1); err != nil {
		rp.close()
		return nil, err
	}
	t1 := time.Now()
	rp.src = &timedSource{Source: rp.p}
	if rp.r, err = cluster.JoinReplica(rp.src, cluster.ReplicaOptions{}); err != nil {
		rp.close()
		return nil, err
	}
	rp.joinS = time.Since(t1).Seconds()
	return rp, nil
}

func (rp *replicated) close() {
	if rp.r != nil {
		rp.r.Close()
	}
	if rp.p != nil {
		rp.p.Close()
	}
	rp.srv.Close()
}

// transferBytes is the encoded size of the state the replica joined from.
func (rp *replicated) transferBytes() (int64, error) {
	var cw countWriter
	if err := cluster.EncodeState(&cw, rp.src.state); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// stepTiming is one flip's path through the write side.
type stepTiming struct {
	publish, sync, fetch, converge time.Duration
	walBytes, records              int64
}

// step applies f on the primary and syncs the replica, timing each stage from
// the call to Primary.Mutate until the replica serves the new snapshot.
func (rp *replicated) step(f flip, tr *tracer) (stepTiming, uint64, error) {
	var (
		st   stepTiming
		snap *serve.Snapshot
		err  error
	)
	tr.root("churn.flip", 0, func(ref spanRef) {
		t0 := time.Now()
		tr.child("cluster.Primary.Mutate", ref, func(spanRef) { snap, err = rp.p.Mutate(f.apply) })
		if err != nil {
			return
		}
		t1 := time.Now()
		tr.child("cluster.Replica.Sync", ref, func(spanRef) { err = rp.r.Sync() })
		t2 := time.Now()
		st.publish, st.sync, st.converge = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
	})
	if err != nil {
		return st, 0, fmt.Errorf("flip %+v: %w", f, err)
	}
	if got := rp.r.Engine().Current().Seq; got != snap.Seq {
		return st, 0, fmt.Errorf("replica serves seq %d after sync, primary published %d", got, snap.Seq)
	}
	st.fetch = rp.src.fetch
	if b := rp.src.batch; b != nil {
		var cw countWriter
		if err := cluster.EncodeWALBatch(&cw, b); err != nil {
			return st, 0, err
		}
		st.walBytes, st.records = cw.n, int64(len(b.Records))
	}
	return st, snap.Seq, nil
}

// countWriter counts the bytes written to it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// probeBackend wraps a cluster member's lookup backend: it counts every
// backend call (first tries, hedges and failovers alike) and, while the
// tracer is on, records a span for each call made for a key of a traced
// request.
type probeBackend struct {
	cluster.Backend
	calls *atomic.Int64
	tr    *tracer
	reg   *keyReg
}

func (b *probeBackend) Lookup(src, dst int) (serve.Result, error) {
	b.calls.Add(1)
	if !b.tr.on.Load() {
		return b.Backend.Lookup(src, dst)
	}
	ref := b.reg.get([2]int{src, dst})
	var res serve.Result
	var err error
	b.tr.child("cluster.Backend.Lookup", ref, func(spanRef) { res, err = b.Backend.Lookup(src, dst) })
	return res, err
}
