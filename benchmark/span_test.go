package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// op [0,100): children a [10,40), b [30,60) overlapping a, c [90,120)
	// overrunning the parent; a has a child d [15,25).
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 25},
	}
	got := selfTimes(spans)
	// Children cover [10,60) and [90,100) of op: 60 of 100.
	if op := got["op"]; op.WallNS != 100 || op.SelfNS != 40 || op.Count != 1 {
		t.Errorf("op = %+v, want wall 100 self 40", *op)
	}
	if a := got["a"]; a.WallNS != 30 || a.SelfNS != 20 {
		t.Errorf("a = %+v, want wall 30 self 20", *a)
	}
	if d := got["d"]; d.SelfNS != 10 {
		t.Errorf("leaf d self = %d, want its duration 10", d.SelfNS)
	}
	for name, tot := range got {
		if tot.SelfNS < 0 || tot.SelfNS > tot.WallNS {
			t.Errorf("%s: self %d outside [0, wall %d]", name, tot.SelfNS, tot.WallNS)
		}
	}
}

func TestSelfTimesSumToParent(t *testing.T) {
	// Non-overlapping children: parent wall = children wall + untracked.
	rec := newRecorder(time.Now())
	root := rec.begin(0, "op", -1)
	for _, name := range []string{"x", "y", "x"} {
		id := rec.begin(0, name, root)
		time.Sleep(time.Millisecond)
		rec.end(id)
	}
	rec.end(root)
	got := selfTimes(rec.spans)
	if got["x"].Count != 2 {
		t.Fatalf("x count = %d, want 2", got["x"].Count)
	}
	children := got["x"].WallNS + got["y"].WallNS
	if op := got["op"]; op.WallNS != children+op.SelfNS {
		t.Errorf("op wall %d != children %d + untracked %d", op.WallNS, children, op.SelfNS)
	}
	total := spanTotals{}
	mergeTotals(total, got)
	mergeTotals(total, got)
	if total["x"].Count != 4 || total["op"].WallNS != 2*got["op"].WallNS {
		t.Errorf("mergeTotals did not add: %+v", *total["x"])
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *recorder
	id := rec.begin(0, "op", -1)
	rec.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span id %d", id)
	}
}
