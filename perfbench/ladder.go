package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/wire"
)

// The ladder times each layer's entry point on the workload's own pairs in
// one goroutine. A layer the workload's deployment lacks is stood up over
// the workload's graph for the ladder alone, so every traced run prints
// every per-layer metric; README.md says which workload each one speaks for.
const (
	rungTime    = 300 * time.Millisecond
	ladderFlips = 6 // flips timed when the ladder stands up its own write path
	buildReps   = 3
	frontTraced = 200 // batches traced through a stand-in front
)

// writeStats is a write path's measurements: a tables-tier primary with one
// replica and the flips it was timed on.
type writeStats struct {
	rp             *replicated
	steps          []stepTiming
	resyncs        uint64
	engineS, joinS float64
}

// ladderIn is what a workload hands the ladder.
type ladderIn struct {
	g            *graph.Graph
	scheme, tier string
	seed         int64
	tr           *tracer
	snap         *serve.Snapshot // a serving snapshot, answering the pairs in own
	srv          *serve.Server   // the server behind snap
	own          [][2]int
	pairs        [][2]int     // the workload's pairs, for the front
	wc           *wire.Client // the workload's RTBIN1 client, or nil
	cluster      *shardedDep  // the workload's sharded cluster, or nil
	write        *writeStats  // the workload's write path, or nil
}

func runLadder(in ladderIn, m metricSet) error {
	r, err := timeCalls(len(in.own), func(i int) error {
		p := in.own[i]
		_, err := in.snap.NextHop(p[0], p[1])
		return err
	})
	if err != nil {
		return fmt.Errorf("snapshot rung: %w", err)
	}
	m.set("snapshot.nexthop_ns", r.ns, "ns")
	r, err = timeCalls(len(in.own), func(i int) error {
		p := in.own[i]
		return in.srv.NextHop(p[0], p[1]).Err
	})
	if err != nil {
		return fmt.Errorf("server rung: %w", err)
	}
	m.set("server.single_ns", r.ns, "ns")
	if err := wireRung(in, m); err != nil {
		return fmt.Errorf("wire rung: %w", err)
	}
	if err := routerRungs(in, m); err != nil {
		return fmt.Errorf("router rungs: %w", err)
	}
	if err := writeRung(in, m); err != nil {
		return fmt.Errorf("write rung: %w", err)
	}
	return nil
}

// rung is one timed entry point: time, allocations and bytes allocated per
// call, over calls calls.
type rung struct {
	ns, allocs, bytes float64
	calls             int
}

// timeCalls calls f(0), f(1), … cyclically over n inputs for rungTime.
func timeCalls(n int, f func(i int) error) (rung, error) {
	if n == 0 {
		return rung{}, fmt.Errorf("no inputs")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < rungTime {
		for k := 0; k < 64; k++ {
			if err := f(calls % n); err != nil {
				return rung{}, err
			}
			calls++
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := float64(calls)
	return rung{
		ns:     float64(el.Nanoseconds()) / c,
		allocs: float64(m1.Mallocs-m0.Mallocs) / c,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / c,
		calls:  calls,
	}, nil
}

// batchesOf cuts pairs into whole batches of size b.
func batchesOf(pairs [][2]int, b int) [][][2]int {
	var out [][][2]int
	for i := 0; i+b <= len(pairs); i += b {
		out = append(out, pairs[i:i+b])
	}
	return out
}

func resultsErr(out []serve.Result) error {
	for _, r := range out {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// wireRung times RTBIN1 round trips, standing a listener up over the
// workload's server when the workload has none.
func wireRung(in ladderIn, m metricSet) error {
	wc := in.wc
	if wc == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		ws := wire.NewServer(in.srv)
		served := make(chan error, 1)
		go func() { served <- ws.Serve(ln) }()
		defer func() {
			ws.Close()
			ln.Close()
			<-served
		}()
		if wc, err = wire.Dial("ladder", ln.Addr().String()); err != nil {
			return err
		}
		defer wc.Close()
	}
	batches := batchesOf(in.own, batchPairs)
	out := make([]serve.Result, batchPairs)
	before := readServers([]*serve.Server{in.srv})
	r, err := timeCalls(len(batches), func(i int) error {
		if err := wc.Batch(batches[i], out); err != nil {
			return err
		}
		return resultsErr(out)
	})
	if err != nil {
		return err
	}
	svc, _ := readServers([]*serve.Server{in.srv}).since(before)
	rtt := r.ns / batchPairs
	m.set("wire.rtt_ns_per_lookup", rtt, "ns")
	m.set("wire.self_ns_per_lookup", rtt-svc, "ns")
	m.set("wire.allocs_per_batch", r.allocs, "count")
	return nil
}

// routerRungs times group 0's cluster.Router and the shard.Router front. A
// workload without a cluster gets a two-group one built over its graph,
// scheme and tier; since no load ran through that front, the attempts per
// lookup and the front's span split are taken here instead.
func routerRungs(in ladderIn, m metricSet) error {
	dep := in.cluster
	reg := &keyReg{m: map[[2]int]spanRef{}}
	standIn := dep == nil
	if standIn {
		var err error
		if dep, err = startSharded(in.g, in.scheme, in.tier, in.pairs[0], in.tr, reg); err != nil {
			return err
		}
		defer dep.close()
	}
	grp := dep.c.Group(0).Router
	owned := ownedBy(dep.c.Map(), 0, in.pairs)
	calls0 := dep.calls.Load()
	cr, err := timeCalls(len(owned), func(i int) error {
		res, err := grp.Lookup(owned[i][0], owned[i][1])
		if err != nil {
			return err
		}
		return res.Err
	})
	if err != nil {
		return err
	}
	m.set("cluster_router.lookup_ns", cr.ns, "ns")
	m.set("cluster_router.allocs_per_lookup", cr.allocs, "count")
	m.set("cluster_router.bytes_per_lookup", cr.bytes, "bytes")
	if standIn {
		m.set("cluster_router.attempts_per_lookup", float64(dep.calls.Load()-calls0)/float64(cr.calls), "count")
	}

	front := dep.c.Front()
	batches := batchesOf(in.pairs, batchPairs)
	out := make([]serve.Result, batchPairs)
	fr, err := timeCalls(len(batches), func(i int) error {
		if err := front.LookupBatch(batches[i], out); err != nil {
			return err
		}
		return resultsErr(out)
	})
	if err != nil {
		return err
	}
	frontNs := fr.ns / batchPairs
	m.set("shard_router.lookup_ns", frontNs, "ns")
	m.set("shard_router.self_ns", frontNs-cr.ns, "ns")
	m.set("shard_router.allocs_per_lookup", fr.allocs/batchPairs, "count")
	m.set("shard_router.bytes_per_lookup", fr.bytes/batchPairs, "bytes")

	if standIn {
		// The load filled the tracer only up to its root limit; the traced
		// batches here fit in the room left (frontTraced × (1 + batchPairs)
		// spans).
		tr := in.tr
		tr.roots = tr.limit
		call := traced(tr, "shard.Router.LookupBatch", reg, front.LookupBatch)
		tr.on.Store(true)
		for i := 0; i < frontTraced; i++ {
			if err := call(batches[i%len(batches)], out); err != nil {
				tr.on.Store(false)
				return err
			}
		}
		tr.on.Store(false)
		busy, self, keys := tr.selfTime("shard.Router.LookupBatch", "cluster.Backend.Lookup")
		m.set("front.backend_busy_ns_per_lookup", float64(busy)/float64(max(keys, 1)), "ns")
		m.set("front.self_ns_per_lookup", float64(self)/float64(max(keys, 1)), "ns")
	}
	return nil
}

// writeRung reports the write path's stage timings: the workload's own
// flips on tables-churn, otherwise a landmark primary and replica stood up
// over the workload's graph and timed on ladderFlips flips.
func writeRung(in ladderIn, m metricSet) error {
	ws := in.write
	if ws == nil {
		rp, err := newReplicated(in.g)
		if err != nil {
			return err
		}
		defer rp.close()
		fl := newFlipper(in.seed, newTopo(in.g), maxOutstanding)
		var steps []stepTiming
		for i := 0; i < ladderFlips; i++ {
			st, _, err := rp.step(fl.next(), nil)
			if err != nil {
				return err
			}
			steps = append(steps, st)
		}
		_, resyncs, _ := rp.r.Stats()
		ws = &writeStats{rp: rp, steps: steps, resyncs: resyncs, engineS: rp.engineS, joinS: rp.joinS}
	}
	var publish, apply, fetch []float64
	var walBytes, records int64
	for _, st := range ws.steps {
		publish = append(publish, float64(st.publish)/1e6)
		apply = append(apply, float64(st.sync-st.fetch)/1e6)
		fetch = append(fetch, float64(st.fetch)/1e6)
		walBytes += st.walBytes
		records += st.records
	}
	cur := ws.rp.eng.Current().Graph
	var build []float64
	for i := 0; i < buildReps; i++ {
		t0 := time.Now()
		if _, err := serve.BuildTableScheme("landmark", cur, graph.SortedPorts(cur)); err != nil {
			return err
		}
		build = append(build, float64(time.Since(t0))/1e6)
	}
	transfer, err := ws.rp.transferBytes()
	if err != nil {
		return err
	}
	pub, bld := median(publish), median(build)
	m.set("primary.publish_ms", pub, "ms")
	m.set("landmark.build_ms", bld, "ms")
	m.set("publish.rest_ms", pub-bld, "ms")
	m.set("replica.apply_ms", median(apply), "ms")
	m.set("replica.fetch_ms", median(fetch), "ms")
	m.set("wal.record_bytes", float64(walBytes)/float64(max(records, 1)), "bytes")
	m.set("replica.resyncs", float64(ws.resyncs), "count")
	m.set("setup.engine_s", ws.engineS, "s")
	m.set("setup.join_s", ws.joinS, "s")
	m.set("state.transfer_bytes", float64(transfer), "bytes")
	return nil
}
