package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"routetab/internal/graph"
	"routetab/internal/serve"
)

// tables-churn: the sparse topology as a landmark primary and one replica
// (in-memory WAL, replica Sync driven after each publish). A writer applies
// seeded edge flips back to back while one closed-loop reader calls the
// primary's Server.LookupBatch: writes beside reads. The landmark rebuild
// and the replica replay dominate the write side.
const tcSlots = 1024

// churnWriter is the flip loop and what it measured.
type churnWriter struct {
	rp       *replicated
	fl       *flipper
	tr       *tracer
	flips    []flip
	outAfter [][][2]int // edges outstanding after k flips, k = 0, 1, ...
	steps    []stepTiming
	inWindow []bool
	err      error
}

func (w *churnWriter) run(wstart, wend time.Time) {
	for w.err == nil {
		t0 := time.Now()
		if !t0.Before(wend) {
			return
		}
		f := w.fl.next()
		st, seq, err := w.rp.step(f, w.tr)
		if err != nil {
			w.err = err
			return
		}
		w.flips = append(w.flips, f)
		w.outAfter = append(w.outAfter, w.fl.snapshotEdges())
		if want := uint64(len(w.flips)) + 1; seq != want {
			w.err = fmt.Errorf("flip %d published seq %d, want %d", len(w.flips), seq, want)
			return
		}
		w.steps = append(w.steps, st)
		w.inWindow = append(w.inWindow, !t0.Before(wstart))
	}
}

func runTablesChurn(cfg config) (*outcome, error) {
	sd := deriveSeeds(cfg.seed)
	g, err := sparseGraph(sd)
	if err != nil {
		return nil, err
	}
	prng := rand.New(rand.NewSource(sd.pairs))
	cycle := genPairs(prng, sparseNodes, tcSlots)

	var engineS, joinS []float64
	rp, setupS, err := medianSetup(setupReps,
		func() (*replicated, error) {
			rp, err := newReplicated(g)
			if err != nil {
				return nil, err
			}
			if res := rp.srv.NextHop(cycle[0][0], cycle[0][1]); res.Err != nil {
				rp.close()
				return nil, fmt.Errorf("first lookup: %w", res.Err)
			}
			engineS, joinS = append(engineS, rp.engineS), append(joinS, rp.joinS)
			return rp, nil
		},
		(*replicated).close)
	if err != nil {
		return nil, fmt.Errorf("tables-churn setup: %w", err)
	}
	defer rp.close()

	base := newTopo(g)
	w := &churnWriter{rp: rp, fl: newFlipper(sd.flips, base, maxOutstanding), outAfter: [][][2]int{nil}}
	reader := newClient(cycle, rp.srv.LookupBatch)
	clients := []*client{reader}
	m := metricSet{}
	warm, window := windows(cfg)
	var tr *tracer
	if !cfg.trace {
		setLookupMetrics(m, runWindow(clients, warm, window, w.run))
	} else {
		tr = newTracer(spanLimit)
		w.tr = tr
		srvs := []*serve.Server{rp.srv}
		plain := runWindow(clients, warm, window/2, w.run)
		before := readServers(srvs)
		reader.call = traced(tr, "serve.Server.LookupBatch", nil, rp.srv.LookupBatch)
		tr.on.Store(true)
		runWindow(clients, 0, window/2, w.run)
		tr.on.Store(false)
		setServerMetrics(m, readServers(srvs), before)
		setLoadLayerMetrics(m, plain, tr, "serve.Server.LookupBatch")
		defer func() {
			if err := tr.write(spansPath(cfg)); err != nil {
				fmt.Fprintln(os.Stderr, "tables-churn: spans:", err)
			}
		}()
	}
	if w.err != nil {
		return nil, fmt.Errorf("tables-churn writer: %w", w.err)
	}
	if len(w.flips) == 0 {
		return nil, fmt.Errorf("tables-churn: the writer applied no flip")
	}

	vd := &verdict{}
	gradeBySeq(vd, base, w.outAfter, reader.answers, gradeStretch3Whole, cfg.clients)
	if err := checkConverged(rp, g, w.flips); err != nil {
		vd.fail(err)
	}
	out := &outcome{Metrics: m}
	out.Attempted, out.Failed = tally("tables-churn", clients)
	out.Attempted += int64(len(w.flips))

	var conv []float64
	for i, st := range w.steps {
		if w.inWindow[i] {
			conv = append(conv, float64(st.converge)/1e6)
		}
	}
	if cfg.trace {
		_, resyncs, _ := rp.r.Stats()
		lin := ladderIn{
			g: g, scheme: "landmark", tier: serve.TierTables, seed: sd.flips,
			snap: rp.eng.Current(), srv: rp.srv, own: cycle, pairs: cycle, tr: tr,
			write: &writeStats{rp: rp, steps: w.steps, resyncs: resyncs, engineS: median(engineS), joinS: median(joinS)},
		}
		if err := runLadder(lin, m); err != nil {
			return nil, err
		}
	} else {
		if len(conv) == 0 {
			return nil, fmt.Errorf("tables-churn: no flip started inside the window")
		}
		m.set("converge_p50_ms", median(conv), "ms")
		m.set("setup_s", setupS, "s")
		m.set("table_bytes", float64(rp.eng.Current().ArenaSize()+rp.r.Engine().Current().ArenaSize()), "bytes")
		m.set("heap_live_mib", heapLiveMiB(), "MiB")
	}
	out.Correct = report(vd, "tables-churn")
	return out, nil
}

// checkConverged requires the primary's and the replica's tables to be
// byte-identical, and equal to a fresh engine built on the benchmark's own
// replay of the flips.
func checkConverged(rp *replicated, g *graph.Graph, flips []flip) error {
	pt := rp.eng.Current().TablesBytes()
	rt := rp.r.Engine().Current().TablesBytes()
	if !bytes.Equal(pt, rt) {
		return fmt.Errorf("primary and replica tables differ (%d vs %d bytes)", len(pt), len(rt))
	}
	replay := g.Clone()
	for _, f := range flips {
		if err := f.apply(replay); err != nil {
			return fmt.Errorf("replaying %+v: %w", f, err)
		}
	}
	fresh, err := serve.NewTieredEngine(replay, "landmark")
	if err != nil {
		return err
	}
	if ft := fresh.Current().TablesBytes(); !bytes.Equal(pt, ft) {
		return fmt.Errorf("served tables differ from a fresh build on the replayed topology (%d vs %d bytes)", len(pt), len(ft))
	}
	return nil
}
