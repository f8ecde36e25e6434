package main

import "testing"

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "query", Start: 0, End: 100, Parent: -1, Op: 1},
		{Name: "svcql.parse", Start: 10, End: 30, Parent: 0, Op: 1},
		{Name: "estimator.corr", Start: 40, End: 90, Parent: 0, Op: 1},
		{Name: "estimator.exact", Start: 50, End: 70, Parent: 2, Op: 1}, // grandchild of the root
		{Name: "wal.append", Start: 60, End: 95, Parent: 2, Op: 1},      // overlaps its sibling, runs past the parent
		{Name: "whole.query", Start: 200, End: 260, Parent: -1, Op: 2},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - 20 - 50, // only direct children count against the root
		20,
		50 - (90 - 50), // children cover [50,70] and [60,90]: 40, counted once and clipped to the parent
		20,
		35,
		60,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}

	shares := pathShares(spans, "query")
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("layer shares of one path must sum to 1, got %v (%v)", total, shares)
	}
	if shares["whole"] != 0 {
		t.Errorf("a span under another root leaked into the query path: %v", shares)
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder()
	root := r.beginOp("query")
	r.in("svcql.parse", func() {})
	outer := r.begin("db.stage")
	r.add("wal.append", r.now(), r.now())
	r.end(outer)
	r.end(root)
	if got := []int{r.spans[1].Parent, r.spans[2].Parent, r.spans[3].Parent}; got[0] != 0 || got[1] != 0 || got[2] != 2 {
		t.Errorf("parents = %v, want [0 0 2]", got)
	}
	for _, sp := range r.spans {
		if sp.Op != 1 || sp.End < sp.Start {
			t.Errorf("span %+v: want op 1 and end >= start", sp)
		}
	}
}

func TestResidualComparesPartsWithWhole(t *testing.T) {
	spans := []span{
		{Name: "cycle", Start: 0, End: 100, Parent: -1},
		{Name: "db.apply", Start: 0, End: 60, Parent: 0},
		{Name: "view.maintain", Start: 60, End: 90, Parent: 0},
		{Name: "whole.cycle", Start: 200, End: 300, Parent: -1},
	}
	if r := residual(spans, "cycle"); r < 0.0999 || r > 0.1001 {
		t.Errorf("parts cover 90 of a whole 100: residual %v, want 0.1", r)
	}
}
