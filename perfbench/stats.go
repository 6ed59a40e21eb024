package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// Hist is a fixed-size log-linear latency histogram over nanoseconds:
// exact below 1024 ns, then 512 sub-buckets per octave (≤ 0.2 % bucket
// width). Its size does not depend on how many operations a run
// completes, so the live heap the benchmark reports does not grow with
// throughput the way a raw sample slice would.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 10
	histSub     = 1 << histSubBits
	histHalf    = histSub / 2
	// histBuckets covers values below 2^44 ns (~4.9 h).
	histBuckets = (44-histSubBits+2)*histHalf + histHalf
)

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits
	return shift*histHalf + int(v>>uint(shift))
}

// histLow returns the lowest value of bucket i and the bucket's width.
func histLow(i int) (low, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	shift := i/histHalf - 1
	m := uint64(i - shift*histHalf)
	return m << uint(shift), 1 << uint(shift)
}

// Record adds one duration sample.
func (h *Hist) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	i := histIndex(v)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Count is the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile in nanoseconds, interpolating
// linearly inside the bucket that holds rank q·(n−1). It returns NaN on
// an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			low, width := histLow(i)
			frac := (rank - float64(seen) + 0.5) / float64(c)
			return math.Min(float64(low)+frac*float64(width), float64(h.max))
		}
		seen += c
	}
	return float64(h.max)
}

// Beyond reports how many samples lie above the q-quantile: the count
// that says whether that percentile rests on enough tail samples.
func (h *Hist) Beyond(q float64) uint64 {
	// The epsilon keeps q·n that should be whole (0.99·100000) from
	// rounding up past its integer.
	return h.n - uint64(math.Ceil(q*float64(h.n)-1e-6))
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (rank q·(n−1)); xs need not be sorted. NaN when empty.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (its
// default "exclusive" method), so the spread reported here is the one a
// run-to-run check computes. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}
