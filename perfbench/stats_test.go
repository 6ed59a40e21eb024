package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, q2, q3, ok := Quartiles(c.xs)
		if !ok || q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("Quartiles(%v) = %v %v %v (ok=%v), want %v", c.xs, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one value reported ok")
	}
}

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median of no values is not NaN")
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 1023, 1024, 1025, 2047, 2048, 123456, 1 << 40, 1<<44 - 1} {
		low, width := histLow(histIndex(v))
		if v < low || v >= low+width {
			t.Errorf("value %d landed in bucket [%d, %d)", v, low, low+width)
		}
		if v >= histSub && float64(width)/float64(v) > 1.0/histHalf {
			t.Errorf("value %d: bucket width %d exceeds the relative resolution", v, width)
		}
	}
	if histIndex(1<<44-1) >= histBuckets {
		t.Errorf("histBuckets %d too small for 2^44-1 (index %d)", histBuckets, histIndex(1<<44-1))
	}
}

func TestHistPercentileAndSampleCount(t *testing.T) {
	var h Hist
	for v := 1; v <= 100000; v++ {
		h.Record(time.Duration(v))
	}
	if h.Count() != 100000 {
		t.Fatalf("Count = %d, want 100000", h.Count())
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50000.5}, {0.9, 90000.1}, {0.99, 99000.01}} {
		if got := h.Quantile(c.q); math.Abs(got-c.want)/c.want > 0.002 {
			t.Errorf("Quantile(%v) = %v, want %v within 0.2%%", c.q, got, c.want)
		}
	}
	// The sample count beyond a percentile says whether it is worth
	// reporting: p90 of 100000 samples has 10000 above it.
	if got := h.Beyond(0.9); got != 10000 {
		t.Errorf("Beyond(0.9) = %d, want 10000", got)
	}
	if got := h.Beyond(0.99); got != 1000 {
		t.Errorf("Beyond(0.99) = %d, want 1000", got)
	}
	var one Hist
	one.Record(7 * time.Nanosecond)
	if got := one.Quantile(0.5); got < 7 || got >= 8 {
		t.Errorf("single-sample median = %v, want within [7, 8)", got)
	}
	if !math.IsNaN(new(Hist).Quantile(0.5)) {
		t.Error("empty histogram quantile is not NaN")
	}
}
