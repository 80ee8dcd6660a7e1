package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of observations of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1).
func (s sample) quantile(q float64) float64 {
	x := s.sorted()
	if len(x) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(x)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return x[lo] + (x[hi]-x[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailBeyond is how many observations must lie above the reported
// tail, and tailMin the fewest observations a tail is taken from: with
// more than twice tailBeyond, the tail lies above the median.
const (
	tailBeyond = 10
	tailMin    = 2*tailBeyond + 1
)

// tail returns the highest percentile that still has tailBeyond
// observations above it: the (n-tailBeyond)-th smallest value, and the
// percentile that value stands for.
func (s sample) tail() (value, pct float64, err error) {
	n := len(s)
	if n < tailMin {
		return 0, 0, fmt.Errorf("tail needs %d samples, have %d", tailMin, n)
	}
	x := s.sorted()
	return x[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), nil
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) with
// its default "exclusive" method, extrapolation at small sizes
// included, so the steadiness report matches how the spread is judged.
func (s sample) quartiles() (q1, q2, q3 float64) {
	x := s.sorted()
	ld := len(x)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return x[0], x[0], x[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (x[j-1]*float64(n-delta) + x[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
