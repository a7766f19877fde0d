package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"routetab/internal/serve"
)

// span is one timed call from the benchmark into a layer's public function.
// Spans of one request share Req; Parent names the span that made the call.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

// tracer keeps spans in memory until the run ends. It holds at most limit
// spans and admits new requests only while fewer than roots are held, so a
// long traced run stays bounded, the requests it admitted keep room for
// their children, and the ladder keeps room for its own; the per-layer
// figures come from the requests that were traced.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	on    atomic.Bool
	limit int
	roots int

	mu    sync.Mutex
	spans []span

	// Untraced batches sent beside the traced ones, while requests were
	// still admitted: the same clients over the same interval.
	plainNs, plainKeys atomic.Int64
}

func newTracer(limit int) *tracer {
	return &tracer{t0: time.Now(), limit: limit, roots: limit * 8 / 10, spans: make([]span, 0, limit)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// admit reports whether a new request may be traced.
func (t *tracer) admit() bool {
	if t == nil || !t.on.Load() {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) < t.roots
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// root traces one call as a request of its own, if a new request may be
// traced; otherwise it just makes the call, with a zero ref. t may be nil.
func (t *tracer) root(name string, keys int, f func(ref spanRef)) {
	if !t.admit() {
		f(spanRef{})
		return
	}
	ref := spanRef{id: t.newID()}
	ref.req = ref.id
	s := t.now()
	f(ref)
	t.add(span{Name: name, ID: ref.id, Req: ref.req, Start: s, End: t.now(), Keys: keys})
}

// child traces one call made on behalf of the span ref; under a zero ref it
// just makes the call.
func (t *tracer) child(name string, ref spanRef, f func(ref spanRef)) {
	if ref.id == 0 {
		f(ref)
		return
	}
	c := spanRef{id: t.newID(), req: ref.req}
	s := t.now()
	f(c)
	t.add(span{Name: name, ID: c.id, Parent: ref.id, Req: ref.req, Start: s, End: t.now()})
}

type spanRef struct{ id, req uint64 }

// traced wraps call so that every other batch sent while the tracer admits
// new requests is recorded as a request of its own; the batches between are
// timed untraced, for the tracing overhead. With reg set, a traced batch's
// keys are registered for the backend wrappers to find their parent span.
// Each caller needs a wrapper of its own.
func traced(tr *tracer, name string, reg *keyReg, call batchFunc) batchFunc {
	var n uint64
	return func(p [][2]int, out []serve.Result) error {
		if n++; n%2 == 0 && tr.admit() {
			t0 := time.Now()
			err := call(p, out)
			tr.plainNs.Add(int64(time.Since(t0)))
			tr.plainKeys.Add(int64(len(p)))
			return err
		}
		var err error
		tr.root(name, len(p), func(ref spanRef) {
			if reg != nil && ref.id != 0 {
				reg.set(p, ref)
				defer reg.clear(p, ref)
			}
			err = call(p, out)
		})
		return err
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime splits the root spans named parent into the time their child
// spans named child cover (the union of the children's intervals, since
// children of one request run in parallel) and the rest, the parent's self
// time. It returns both summed over every such root, with the keys they
// carried.
func (t *tracer) selfTime(parent, child string) (busyNs, selfNs int64, keys int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Name == child {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.Name != parent {
			continue
		}
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curS, curE int64
		open := false
		for _, x := range iv {
			a, b := max(x[0], s.Start), min(x[1], s.End)
			if b <= a {
				continue
			}
			if open && a <= curE {
				curE = max(curE, b)
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = a, b, true
		}
		if open {
			covered += curE - curS
		}
		busyNs += covered
		selfNs += s.End - s.Start - covered
		keys += s.Keys
	}
	return busyNs, selfNs, keys
}

// rootNsPerKey is the mean duration per key of the root spans named name.
func (t *tracer) rootNsPerKey(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	var n int
	for _, s := range t.spans {
		if s.Name == name && s.Keys > 0 {
			sum += float64(s.End-s.Start) / float64(s.Keys)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// overheadPct compares the root spans named name with the untraced batches
// timed beside them: the percentage by which tracing lengthens a lookup.
func (t *tracer) overheadPct(name string) float64 {
	traced := t.rootNsPerKey(name)
	keys := t.plainKeys.Load()
	if traced == 0 || keys == 0 {
		return 0
	}
	return (traced/(float64(t.plainNs.Load())/float64(keys)) - 1) * 100
}

// keyReg lets a backend wrapper find the request its lookup belongs to:
// callers register each key of a traced batch before handing the batch to
// the front, which does not carry request context down to its backends.
type keyReg struct {
	mu sync.Mutex
	m  map[[2]int]spanRef
}

func (r *keyReg) set(pairs [][2]int, ref spanRef) {
	r.mu.Lock()
	for _, p := range pairs {
		r.m[p] = ref
	}
	r.mu.Unlock()
}

func (r *keyReg) clear(pairs [][2]int, ref spanRef) {
	r.mu.Lock()
	for _, p := range pairs {
		if r.m[p] == ref {
			delete(r.m, p)
		}
	}
	r.mu.Unlock()
}

// get returns the request registered for p, or a zero ref.
func (r *keyReg) get(p [2]int) spanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[p]
}
