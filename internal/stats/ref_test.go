package stats

import (
	"math"
	"testing"

	"powercontainers/internal/sim"
)

// flatSeries is the pre-paging Series: one flat slice grown a bucket at a
// time. It is the reference the paged Series must match bit for bit.
type flatSeries struct {
	interval sim.Time
	buckets  []float64
}

func (s *flatSeries) grow(idx int) {
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
}

func (s *flatSeries) Add(t sim.Time, value float64) {
	idx := int(t / s.interval)
	s.grow(idx)
	s.buckets[idx] += value
}

func (s *flatSeries) AddSpread(t0, t1 sim.Time, value float64) {
	if t1 <= t0 {
		return
	}
	total := float64(t1 - t0)
	first := t0 / s.interval
	last := (t1 - 1) / s.interval
	s.grow(int(last))
	for b := first; b <= last; b++ {
		lo := b * s.interval
		hi := lo + s.interval
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		s.buckets[b] += value * float64(hi-lo) / total
	}
}

func (s *flatSeries) Bucket(i int) float64 {
	if i < 0 || i >= len(s.buckets) {
		return 0
	}
	return s.buckets[i]
}

func (s *flatSeries) Range(lo, hi int) []float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.buckets) {
		hi = len(s.buckets)
	}
	if hi <= lo {
		return nil
	}
	return append([]float64(nil), s.buckets[lo:hi]...)
}

func (s *flatSeries) RateSeries() []float64 {
	out := make([]float64, len(s.buckets))
	scale := float64(sim.Second) / float64(s.interval)
	for i, v := range s.buckets {
		out[i] = v * scale
	}
	return out
}

func (s *flatSeries) Rebucket(factor int) *flatSeries {
	out := &flatSeries{interval: s.interval * sim.Time(factor)}
	for i := 0; i < len(s.buckets); i += factor {
		var sum float64
		n := 0
		for j := i; j < i+factor && j < len(s.buckets); j++ {
			sum += s.buckets[j]
			n++
		}
		out.grow(i / factor)
		out.buckets[i/factor] = sum * float64(factor) / float64(n)
	}
	return out
}

// sameBits reports whether two slices are bit-identical, nil-ness included.
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSeriesEqual compares every read of the paged series with the flat
// reference.
func checkSeriesEqual(t *testing.T, step int, got *Series, want *flatSeries) {
	t.Helper()
	if got.Len() != len(want.buckets) || got.Interval() != want.interval {
		t.Fatalf("step %d: Len/Interval = %d/%d, want %d/%d", step, got.Len(), got.Interval(), len(want.buckets), want.interval)
	}
	for i := -1; i <= got.Len()+1; i++ {
		if math.Float64bits(got.Bucket(i)) != math.Float64bits(want.Bucket(i)) {
			t.Fatalf("step %d: Bucket(%d) = %v, want %v", step, i, got.Bucket(i), want.Bucket(i))
		}
	}
	if !sameBits(got.Values(), want.Range(0, len(want.buckets))) {
		t.Fatalf("step %d: Values differ", step)
	}
	if !sameBits(got.RateSeries(), want.RateSeries()) {
		t.Fatalf("step %d: RateSeries differs", step)
	}
}

// TestSeriesMatchesFlatReference drives the paged Series and the flat
// reference with the same random Add/AddSpread sequence, with writes
// concentrated around the 4095/4096 page boundary, back-writes below Len
// and spans covering whole pages, and requires bit-identical reads.
func TestSeriesMatchesFlatReference(t *testing.T) {
	const iv = sim.Time(10)
	rng := sim.NewRand(13)
	got := NewSeries(iv)
	want := &flatSeries{interval: iv}
	checkSeriesEqual(t, -1, got, want)
	for step := 0; step < 3000; step++ {
		var t0 sim.Time
		switch rng.Intn(4) {
		case 0: // around the first page boundary
			t0 = (seriesPageSize-2)*iv + sim.Time(rng.Intn(int(4*iv)))
		case 1: // around the second page boundary
			t0 = (2*seriesPageSize-2)*iv + sim.Time(rng.Intn(int(4*iv)))
		default: // anywhere, including back-writes below Len
			t0 = sim.Time(rng.Intn(int(3 * seriesPageSize * iv)))
		}
		v := rng.Float64()*10 - 1
		if rng.Intn(10) == 0 {
			v = 0
		}
		if rng.Intn(3) == 0 {
			got.Add(t0, v)
			want.Add(t0, v)
		} else {
			span := sim.Time(rng.Intn(int(3*iv))) + 1
			if rng.Intn(50) == 0 {
				span = sim.Time(rng.Intn(int(2*seriesPageSize*iv))) + 1
			}
			got.AddSpread(t0, t0+span, v)
			want.AddSpread(t0, t0+span, v)
		}
		if step%500 == 0 {
			checkSeriesEqual(t, step, got, want)
		}
	}
	checkSeriesEqual(t, 3000, got, want)
	n := got.Len()
	for _, r := range [][2]int{{0, n}, {-5, 3}, {seriesPageSize - 1, seriesPageSize + 1}, {seriesPageSize, 2 * seriesPageSize}, {5, n + 100}, {7, 7}, {9, 2}, {n, n + 5}} {
		if !sameBits(got.Range(r[0], r[1]), want.Range(r[0], r[1])) {
			t.Fatalf("Range(%d, %d) differs", r[0], r[1])
		}
	}
	for _, f := range []int{1, 2, 3, 7, seriesPageSize, seriesPageSize + 1, n + 1} {
		rg, rw := got.Rebucket(f), want.Rebucket(f)
		checkSeriesEqual(t, -f, rg, rw)
	}
	// An empty series reads the same as an empty reference too.
	empty := NewSeries(iv)
	if empty.Values() != nil || empty.Range(0, 1) != nil || len(empty.RateSeries()) != 0 || empty.Rebucket(3).Len() != 0 {
		t.Fatal("empty series reads differ from the reference")
	}
}
