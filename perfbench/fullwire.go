package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"routetab/internal/gengraph"
	"routetab/internal/graph"
	"routetab/internal/serve"
	"routetab/internal/serve/wire"
)

// full-wire: G(1024, 1/2), the paper's Kolmogorov-random regime (diameter
// 2), served by fulltable at the full tier from one engine and server behind
// the RTBIN1 listener on loopback, one connection per client. The wire codec
// and the server's pool hop do most of the work; the routers and the write
// path are absent from its lookups.
const (
	fwNodes    = 1024
	fwSlots    = 4096 // pairs in each client's cycle
	fwProbeOps = 16   // edge flips timed for converge_p50_ms
)

type fullWireDep struct {
	eng    *serve.Engine
	srv    *serve.Server
	ln     net.Listener
	ws     *wire.Server
	served chan error
	conns  []*wire.Client
}

func startFullWire(g *graph.Graph, conns int, first [2]int) (*fullWireDep, error) {
	eng, err := serve.NewEngine(g, "fulltable")
	if err != nil {
		return nil, err
	}
	d := &fullWireDep{eng: eng, srv: serve.NewServer(eng, serve.ServerOptions{}), served: make(chan error, 1)}
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		d.srv.Close()
		return nil, err
	}
	d.ws = wire.NewServer(d.srv)
	go func() { d.served <- d.ws.Serve(d.ln) }()
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(fmt.Sprintf("client-%d", i), d.ln.Addr().String())
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	var out [1]serve.Result
	if err := d.conns[0].Batch([][2]int{first}, out[:]); err != nil {
		d.close()
		return nil, err
	}
	if out[0].Err != nil {
		d.close()
		return nil, fmt.Errorf("first lookup: %w", out[0].Err)
	}
	return d, nil
}

func (d *fullWireDep) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.ws.Close()
	d.ln.Close() // in case Close ran before Serve took the listener
	<-d.served
	d.srv.Close()
}

func runFullWire(cfg config) (*outcome, error) {
	sd := deriveSeeds(cfg.seed)
	g, err := gengraph.GnHalf(fwNodes, rand.New(rand.NewSource(sd.graph)))
	if err != nil {
		return nil, err
	}
	prng := rand.New(rand.NewSource(sd.pairs))
	cycles := make([][][2]int, cfg.clients)
	for i := range cycles {
		cycles[i] = genPairs(prng, fwNodes, fwSlots)
	}
	dep, setupS, err := medianSetup(setupReps,
		func() (*fullWireDep, error) { return startFullWire(g, cfg.clients, cycles[0][0]) },
		(*fullWireDep).close)
	if err != nil {
		return nil, fmt.Errorf("full-wire setup: %w", err)
	}
	defer dep.close()

	clients := make([]*client, cfg.clients)
	for i := range clients {
		clients[i] = newClient(cycles[i], dep.conns[i].Batch)
	}
	m := metricSet{}
	warm, window := windows(cfg)
	var tr *tracer
	if !cfg.trace {
		st := runWindow(clients, warm, window, nil)
		setLookupMetrics(m, st)
	} else {
		tr = newTracer(spanLimit)
		plain := runWindow(clients, warm, window/2, nil)
		before := readServers([]*serve.Server{dep.srv})
		for i, c := range clients {
			c.call = traced(tr, "wire.Client.Batch", nil, dep.conns[i].Batch)
		}
		tr.on.Store(true)
		runWindow(clients, 0, window/2, nil)
		tr.on.Store(false)
		setServerMetrics(m, readServers([]*serve.Server{dep.srv}), before)
		setLoadLayerMetrics(m, plain, tr, "wire.Client.Batch")
	}

	vd := &verdict{}
	base := newTopo(g)
	v := &view{t: base}
	answers := collect(clients)
	rows, err := v.rows(distinctDsts(answers), cfg.clients)
	if err != nil {
		return nil, err
	}
	gradeStatic(vd, v, rows, answers, dep.eng.Current().Seq, gradeExact)
	out := &outcome{Metrics: m}
	out.Attempted, out.Failed = tally("full-wire", clients)

	if cfg.trace {
		lin := ladderIn{
			g: g, scheme: "fulltable", tier: serve.TierFull, seed: sd.flips,
			snap: dep.eng.Current(), srv: dep.srv, own: cycles[0], pairs: cycles[0], wc: dep.conns[0], tr: tr,
		}
		if err := runLadder(lin, m); err != nil {
			return nil, err
		}
		if err := tr.write(spansPath(cfg)); err != nil {
			return nil, err
		}
	} else {
		conv, err := fullWireConverge(dep, base, sd.flips, vd)
		if err != nil {
			return nil, err
		}
		out.Attempted += fwProbeOps
		m.set("converge_p50_ms", conv, "ms")
		m.set("setup_s", setupS, "s")
		m.set("table_bytes", float64(dep.eng.Current().ArenaSize()), "bytes")
		m.set("heap_live_mib", heapLiveMiB(), "MiB")
	}
	out.Correct = report(vd, "full-wire")
	return out, nil
}

// fullWireConverge times edge flips from Engine.Mutate until the RTBIN1
// endpoint answers from the new snapshot, and grades that answer against
// the flipped topology. Each edge is added and then removed, so the
// deployment ends on the generated graph.
func fullWireConverge(dep *fullWireDep, base *topo, seed int64, vd *verdict) (float64, error) {
	fl := newFlipper(seed, base, 1)
	probe := [][2]int{{1, 2}}
	var out [1]serve.Result
	var conv []float64
	for i := 0; i < fwProbeOps; i++ {
		f := fl.next()
		t0 := time.Now()
		snap, err := dep.eng.Mutate(f.apply)
		if err != nil {
			return 0, err
		}
		for {
			if err := dep.conns[0].Batch(probe, out[:]); err != nil {
				return 0, err
			}
			if out[0].Err != nil {
				return 0, out[0].Err
			}
			if out[0].Seq >= snap.Seq {
				break
			}
		}
		conv = append(conv, float64(time.Since(t0))/1e6)
		v := viewWith(base, fl.snapshotEdges())
		rows, err := v.rows([]int{probe[0][1]}, 1)
		if err != nil {
			return 0, err
		}
		gradeStatic(vd, v, rows, []answer{{pair: probe[0], res: out[0]}}, snap.Seq, gradeExact)
	}
	return median(conv), nil
}
