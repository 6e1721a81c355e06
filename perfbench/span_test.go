package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Layer: "point", Parent: -1, Start: 0, End: 100},
		{Layer: "alloc", Parent: 0, Start: 10, End: 30},
		{Layer: "alloc", Parent: 0, Start: 20, End: 50},    // overlaps its sibling
		{Layer: "mapping", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Layer: "inner", Parent: 1, Start: 12, End: 18},
		{Layer: "point", Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - (40 + 10), 20 - 6, 30, 30, 6, 10}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Layer, got[i], want[i])
		}
	}
	layers, root := Summarize([]*Trace{{Spans: spans}})
	if root != 110 {
		t.Errorf("root total %d, want 110", root)
	}
	if a := layers["alloc"]; a.Calls != 2 || a.SelfNS != 14+30 {
		t.Errorf("alloc: %d calls, %d self, want 2 and 44", a.Calls, a.SelfNS)
	}
}
