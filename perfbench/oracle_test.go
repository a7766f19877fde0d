package main

import (
	"testing"

	"routetab/internal/graph"
	"routetab/internal/serve"
)

// cycle6 is the 6-cycle 1-2-3-4-5-6-1.
func cycle6(t *testing.T) *topo {
	t.Helper()
	g := graph.MustNew(6)
	for u := 1; u <= 6; u++ {
		if err := g.AddEdge(u, u%6+1); err != nil {
			t.Fatal(err)
		}
	}
	return newTopo(g)
}

func rowsFor(t *testing.T, v *view, dst int) []uint8 {
	t.Helper()
	rows, err := v.rows([]int{dst}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rows[dst]
}

func TestBFSDistances(t *testing.T) {
	v := &view{t: cycle6(t)}
	row := rowsFor(t, v, 1)
	want := []uint8{unreached, 0, 1, 2, 3, 2, 1}
	for u := 1; u <= 6; u++ {
		if row[u] != want[u] {
			t.Errorf("d(%d, 1) = %d, want %d", u, row[u], want[u])
		}
	}
	// The chord 1–4 brings 4 next to 1 and 3, 5 within two hops.
	row = rowsFor(t, viewWith(v.t, [][2]int{{1, 4}}), 1)
	if row[4] != 1 || row[3] != 2 || row[5] != 2 {
		t.Errorf("with chord 1–4: d(4,1)=%d d(3,1)=%d d(5,1)=%d, want 1 2 2", row[4], row[3], row[5])
	}
}

func TestGraderRejects(t *testing.T) {
	v := &view{t: cycle6(t)}
	row := rowsFor(t, v, 3) // d(1,3) = 2 through 2; 6 is a neighbour of 1 at distance 3
	cases := []struct {
		name   string
		grade  gradeFunc
		res    serve.Result
		wantOK bool
	}{
		{"exact shortest path", gradeExact, serve.Result{Next: 2, Dist: 2, NextDist: 1}, true},
		{"exact wrong distance", gradeExact, serve.Result{Next: 2, Dist: 3, NextDist: 1}, false},
		{"exact wrong next-hop distance", gradeExact, serve.Result{Next: 2, Dist: 2, NextDist: 2}, false},
		{"exact non-neighbour", gradeExact, serve.Result{Next: 3, Dist: 2, NextDist: 0}, false},
		{"exact off a shortest path", gradeExact, serve.Result{Next: 6, Dist: 2, NextDist: 3}, false},
		{"stretch-3 detour within bound", gradeStretch3, serve.Result{Next: 6, Dist: 4, NextDist: 3}, true},
		{"stretch-3 non-neighbour", gradeStretch3, serve.Result{Next: 4, Dist: 2, NextDist: 1}, false},
		{"stretch-3 distance below d", gradeStretch3, serve.Result{Next: 2, Dist: 1, NextDist: 1}, false},
		{"stretch-3 distance above 3d", gradeStretch3, serve.Result{Next: 2, Dist: 7, NextDist: 1}, false},
		{"stretch-3 next-hop distance below the truth", gradeStretch3, serve.Result{Next: 6, Dist: 4, NextDist: 2}, false},
		{"restricted tables: next-hop distance above 3·d(next, dst)", gradeStretch3, serve.Result{Next: 2, Dist: 2, NextDist: 4}, true},
		{"whole tables: next-hop distance within 3·d(next, dst)", gradeStretch3Whole, serve.Result{Next: 6, Dist: 4, NextDist: 9}, true},
		{"whole tables: next-hop distance above 3·d(next, dst)", gradeStretch3Whole, serve.Result{Next: 2, Dist: 2, NextDist: 4}, false},
		{"whole tables: non-neighbour", gradeStretch3Whole, serve.Result{Next: 4, Dist: 2, NextDist: 1}, false},
	}
	for _, c := range cases {
		err := c.grade(v, row, 1, 3, c.res)
		if (err == nil) != c.wantOK {
			t.Errorf("%s: grade(%+v) = %v, want ok=%v", c.name, c.res, err, c.wantOK)
		}
	}
}

func TestGraderRejectsNextHopBeyondStretch(t *testing.T) {
	v := &view{t: cycle6(t)}
	row := rowsFor(t, v, 2)
	// d(1,2) = 1 and d(5,2) = 3 > 3·1−1. Such a hop is never a neighbour
	// of src (a neighbour is at most d+1 away), so the neighbour check is
	// what rejects it.
	if err := gradeStretch3(v, row, 1, 2, serve.Result{Next: 5, Dist: 1, NextDist: 3}); err == nil {
		t.Error("a next hop 3 hops from dst passed at d = 1")
	}
}

func TestGradeAgainstAnsweringSeq(t *testing.T) {
	base := cycle6(t)
	// Seq 1 is the cycle; flip 1 adds the chord 1–4, which seq 2 serves.
	outAfter := [][][2]int{nil, {{1, 4}}}
	chordAnswer := serve.Result{Next: 4, Dist: 1, NextDist: 0}
	for _, c := range []struct {
		seq    uint64
		wantOK bool
	}{{2, true}, {1, false}, {3, false}} {
		r := chordAnswer
		r.Seq = c.seq
		vd := &verdict{}
		gradeBySeq(vd, base, outAfter, []answer{{pair: [2]int{1, 4}, res: r}}, gradeStretch3Whole, 2)
		if vd.ok() != c.wantOK || vd.graded != 1 {
			t.Errorf("seq %d: ok=%v graded=%d (%v), want ok=%v", c.seq, vd.ok(), vd.graded, vd.first, c.wantOK)
		}
	}
	vd := &verdict{}
	v := &view{t: base}
	rows, err := v.rows([]int{4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := serve.Result{Next: 2, Dist: 3, NextDist: 2, Seq: 2}
	gradeStatic(vd, v, rows, []answer{{pair: [2]int{1, 4}, res: stale}}, 1, gradeExact)
	if vd.ok() {
		t.Error("an answer from seq 2 passed while only seq 1 was served")
	}
}

func TestFlipperKeepsBaseAndBound(t *testing.T) {
	base := cycle6(t)
	fl := newFlipper(7, base, 2)
	var adds, removes int
	live := map[[2]int]bool{}
	for i := 0; i < 12; i++ {
		f := fl.next()
		e := [2]int{f.u, f.v}
		if base.adjacent(f.u, f.v) {
			t.Fatalf("flip %d touches base edge %v", i, e)
		}
		if f.add {
			adds++
			if live[e] {
				t.Fatalf("flip %d adds %v twice", i, e)
			}
			live[e] = true
		} else {
			removes++
			if !live[e] {
				t.Fatalf("flip %d removes %v, which it never added", i, e)
			}
			delete(live, e)
		}
		if len(live) > 2 || len(live) != len(fl.snapshotEdges()) {
			t.Fatalf("flip %d: %d edges outstanding, flipper says %d (max 2)", i, len(live), len(fl.snapshotEdges()))
		}
	}
	if adds != 7 || removes != 5 {
		t.Errorf("adds %d removes %d, want 7 and 5", adds, removes)
	}
}
