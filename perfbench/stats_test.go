package main

import "testing"

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		if got := TailOK(c.n, c.p); got != c.want {
			t.Errorf("TailOK(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := SamplesFor(0.99); got != 1000 {
		t.Errorf("SamplesFor(0.99) = %d, want 1000", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	var d Dist
	for i := 100; i >= 1; i-- {
		d.Add(float64(i))
	}
	if v, ok := d.Pct(0.5); v != 50 || !ok {
		t.Errorf("p50 = %g (ok %v), want 50", v, ok)
	}
	if v, ok := d.Pct(0.99); v != 99 || ok {
		t.Errorf("p99 of 100 samples = %g (ok %v), want 99 and not ok", v, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if d.Mean() != 50.5 {
		t.Errorf("mean %g, want 50.5", d.Mean())
	}
}
