package main

import "testing"

func TestSelfTimeCountsUnionOfChildren(t *testing.T) {
	tr := newTracer(100)
	tr.add(span{Name: "front", ID: 1, Req: 1, Start: 0, End: 100, Keys: 4})
	// Overlapping children cover 10–50 once; one child runs past the parent
	// and is clipped at 100; another request's child must not count.
	for _, c := range [][2]int64{{10, 30}, {20, 50}, {60, 70}, {90, 120}} {
		tr.add(span{Name: "backend", ID: 2, Parent: 1, Req: 1, Start: c[0], End: c[1]})
	}
	tr.add(span{Name: "backend", ID: 3, Parent: 9, Req: 9, Start: 0, End: 100})
	busy, self, keys := tr.selfTime("front", "backend")
	if busy != 60 || self != 40 || keys != 4 {
		t.Errorf("selfTime = busy %d, self %d, keys %d; want 60, 40, 4", busy, self, keys)
	}
}
