package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"routetab/internal/cluster"
	"routetab/internal/cluster/shard"
	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
)

// sharded-front: SparseConnected(4096, 8) on the landmark tables tier, two
// shard groups of one primary and one replica each, driven in process
// through shard.Router.LookupBatch with no faults. The scatter-gather and
// failover routers dominate; there is no wire. tables-churn serves the same
// topology family.
const (
	sparseNodes = 4096
	sparseDeg   = 8
	sfGroups    = 2
	sfSlots     = 2048
	sfWalks     = 64 // full routes walked hop by hop through the front
	sfProbeOps  = 24
	// sfCallers is the closed-loop callers. The front fans each batch out
	// to a goroutine per group, and the group router starts one per key.
	// With a second caller the batches queued behind each other's
	// goroutines, and lookup_p90_us followed the hypervisor: in runs that
	// lost a third of their CPU time to it, p90 rose from about 225 µs to
	// 373–384, where one caller's stayed within 216–241.
	sfCallers = 1
)

func sparseGraph(sd seeds) (*graph.Graph, error) {
	return gengraph.SparseConnected(sparseNodes, sparseDeg, rand.New(rand.NewSource(sd.graph)))
}

type shardedDep struct {
	c     *shard.Cluster
	calls atomic.Int64 // backend calls, counted in traced runs only
}

// startSharded builds the cluster; with a tracer, every member's backend is
// wrapped to count calls and record spans.
func startSharded(g *graph.Graph, scheme, tier string, first [2]int, tr *tracer, reg *keyReg) (*shardedDep, error) {
	m, err := shard.NewUniform(g.N(), sfGroups)
	if err != nil {
		return nil, err
	}
	d := &shardedDep{}
	opts := shard.ClusterOptions{Scheme: scheme, Tier: tier, Replicas: 1}
	if tr != nil {
		opts.WrapBackend = func(_ int, _ string, b cluster.Backend) cluster.Backend {
			return &probeBackend{Backend: b, calls: &d.calls, tr: tr, reg: reg}
		}
	}
	if d.c, err = shard.NewCluster(g, m, opts); err != nil {
		return nil, err
	}
	res, err := d.c.Front().Lookup(first[0], first[1])
	if err == nil {
		err = res.Err
	}
	if err != nil {
		d.c.Close()
		return nil, fmt.Errorf("first lookup: %w", err)
	}
	return d, nil
}

func (d *shardedDep) close() { d.c.Close() }

// members returns every serving member's server and snapshot.
func (d *shardedDep) members() ([]*serve.Server, []*serve.Snapshot) {
	var srvs []*serve.Server
	var snaps []*serve.Snapshot
	for _, id := range d.c.GroupIDs() {
		grp := d.c.Group(id)
		srvs = append(srvs, grp.Primary.Server())
		snaps = append(snaps, grp.Primary.Engine().Current())
		for _, r := range grp.Replicas() {
			srvs = append(srvs, r.Server())
			snaps = append(snaps, r.Engine().Current())
		}
	}
	return srvs, snaps
}

func runShardedFront(cfg config) (*outcome, error) {
	sd := deriveSeeds(cfg.seed)
	g, err := sparseGraph(sd)
	if err != nil {
		return nil, err
	}
	prng := rand.New(rand.NewSource(sd.pairs))
	cycles := make([][][2]int, sfCallers)
	for i := range cycles {
		cycles[i] = genPairs(prng, sparseNodes, sfSlots)
	}
	walks := genPairs(prng, sparseNodes, sfWalks)

	var tr *tracer
	reg := &keyReg{m: map[[2]int]spanRef{}}
	if cfg.trace {
		tr = newTracer(spanLimit)
	}
	dep, setupS, err := medianSetup(setupReps,
		func() (*shardedDep, error) {
			return startSharded(g, "landmark", serve.TierTables, cycles[0][0], tr, reg)
		},
		(*shardedDep).close)
	if err != nil {
		return nil, fmt.Errorf("sharded-front setup: %w", err)
	}
	defer dep.close()
	front := dep.c.Front()
	seq := dep.c.Group(0).Primary.Engine().Current().Seq

	clients := make([]*client, sfCallers)
	for i := range clients {
		clients[i] = newClient(cycles[i], front.LookupBatch)
	}
	m := metricSet{}
	warm, window := windows(cfg)
	if !cfg.trace {
		setLookupMetrics(m, runWindow(clients, warm, window, nil))
	} else {
		srvs, _ := dep.members()
		dep.calls.Store(0)
		plain := runWindow(clients, warm, window/2, nil)
		before := readServers(srvs)
		for _, c := range clients {
			c.call = traced(tr, "shard.Router.LookupBatch", reg, front.LookupBatch)
		}
		tr.on.Store(true)
		runWindow(clients, 0, window/2, nil)
		tr.on.Store(false)
		var sent int64
		for _, c := range clients {
			sent += c.total
		}
		m.set("cluster_router.attempts_per_lookup", float64(dep.calls.Load())/float64(sent), "count")
		setServerMetrics(m, readServers(srvs), before)
		setLoadLayerMetrics(m, plain, tr, "shard.Router.LookupBatch")
		busy, self, keys := tr.selfTime("shard.Router.LookupBatch", "cluster.Backend.Lookup")
		m.set("front.backend_busy_ns_per_lookup", float64(busy)/float64(max(keys, 1)), "ns")
		m.set("front.self_ns_per_lookup", float64(self)/float64(max(keys, 1)), "ns")
	}

	vd := &verdict{}
	base := newTopo(g)
	v := &view{t: base}
	answers := collect(clients)
	rows, err := v.rows(distinctDsts(answers, walks...), cfg.clients)
	if err != nil {
		return nil, err
	}
	gradeStatic(vd, v, rows, answers, seq, gradeStretch3)
	out := &outcome{Metrics: m}
	out.Attempted, out.Failed = tally("sharded-front", clients)
	hops, failed := walkRoutes(vd, v, rows, front, walks, seq)
	out.Attempted += hops
	out.Failed += failed

	if cfg.trace {
		_, snaps := dep.members()
		own := ownedBy(dep.c.Map(), 0, cycles[0])
		lin := ladderIn{
			g: g, scheme: "landmark", tier: serve.TierTables, seed: sd.flips,
			snap: snaps[0], srv: dep.c.Group(0).Primary.Server(), own: own, tr: tr,
			cluster: dep, pairs: cycles[0],
		}
		if err := runLadder(lin, m); err != nil {
			return nil, err
		}
		if err := tr.write(spansPath(cfg)); err != nil {
			return nil, err
		}
	} else {
		conv, err := shardedConverge(dep, base, sd.flips)
		if err != nil {
			return nil, err
		}
		out.Attempted += sfProbeOps
		m.set("converge_p50_ms", conv, "ms")
		m.set("setup_s", setupS, "s")
		_, snaps := dep.members()
		total := 0
		for _, s := range snaps {
			total += s.ArenaSize()
		}
		m.set("table_bytes", float64(total), "bytes")
		m.set("heap_live_mib", heapLiveMiB(), "MiB")
	}
	out.Correct = report(vd, "sharded-front")
	return out, nil
}

// walkRoutes follows each route hop by hop through the front: every hop must
// be a graded answer, and the route must arrive within 3·d hops. It returns
// the lookups made and how many failed.
func walkRoutes(vd *verdict, v *view, rows map[int][]uint8, front *shard.Router, walks [][2]int, seq uint64) (hops, failed int64) {
	for _, w := range walks {
		src, dst := w[0], w[1]
		row := rows[dst]
		limit := 3 * int(row[src])
		cur := src
		for n := 0; cur != dst; n++ {
			if n >= limit {
				vd.fail(fmt.Errorf("route %d→%d: not at the destination after %d hops (d = %d)", src, dst, n, row[src]))
				break
			}
			res, err := front.Lookup(cur, dst)
			hops++
			if err == nil {
				err = res.Err
			}
			if err != nil {
				failed++
				break
			}
			gradeStatic(vd, v, rows, []answer{{pair: [2]int{cur, dst}, res: res}}, seq, gradeStretch3)
			cur = res.Next
		}
	}
	return hops, failed
}

// shardedConverge times edge flips from Cluster.Mutate until every replica
// of every group serves the new snapshot. Each edge is added and then
// removed, so the cluster ends on the generated graph.
func shardedConverge(dep *shardedDep, base *topo, seed int64) (float64, error) {
	fl := newFlipper(seed, base, 1)
	var conv []float64
	for i := 0; i < sfProbeOps; i++ {
		f := fl.next()
		t0 := time.Now()
		if err := dep.c.Mutate(f.apply); err != nil {
			return 0, err
		}
		if err := dep.c.SyncAll(); err != nil {
			return 0, err
		}
		el := time.Since(t0)
		for _, id := range dep.c.GroupIDs() {
			grp := dep.c.Group(id)
			want := grp.Primary.Engine().Current().Seq
			for _, r := range grp.Replicas() {
				if got := r.Engine().Current().Seq; got != want {
					return 0, fmt.Errorf("group %d replica serves seq %d after sync, primary %d", id, got, want)
				}
			}
		}
		conv = append(conv, float64(el)/1e6)
	}
	return median(conv), nil
}

// ownedBy keeps the pairs whose source group g owns under m.
func ownedBy(m *shard.Map, g int, pairs [][2]int) [][2]int {
	var out [][2]int
	for _, p := range pairs {
		if m.GroupFor(p[0]) == g {
			out = append(out, p)
		}
	}
	return out
}
