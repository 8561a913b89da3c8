package model

import (
	"math"
	"testing"

	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// refMetricSeries is the pre-paging MetricSeries: eight component-major
// stats.Series, each spread on its own. It is the reference the paged,
// bucket-major store must match bit for bit.
type refMetricSeries struct {
	interval sim.Time
	series   [8]*stats.Series
	cursors  []*MetricCursor
}

func newRefMetricSeries(interval sim.Time) *refMetricSeries {
	ms := &refMetricSeries{interval: interval}
	for i := range ms.series {
		ms.series[i] = stats.NewSeries(interval)
	}
	return ms
}

func (ms *refMetricSeries) Len() int {
	n := 0
	for _, s := range ms.series {
		if s.Len() > n {
			n = s.Len()
		}
	}
	return n
}

func (ms *refMetricSeries) AddSpread(t0, t1 sim.Time, m Metrics) {
	if t1 <= t0 {
		return
	}
	scale := float64(t1-t0) / float64(ms.interval)
	v := [8]float64{m.Core, m.Ins, m.Float, m.Cache, m.Mem, m.Chip, m.Disk, m.Net}
	wrote := false
	for i, s := range ms.series {
		if v[i] == 0 {
			continue
		}
		s.AddSpread(t0, t1, v[i]*scale)
		wrote = true
	}
	if !wrote {
		return
	}
	first := int(t0 / ms.interval)
	for _, c := range ms.cursors {
		if first < c.lo {
			c.lo = first
		}
	}
}

func (ms *refMetricSeries) At(b int) Metrics {
	var v [8]float64
	for i, s := range ms.series {
		v[i] = s.Bucket(b)
	}
	m, _ := MetricsFromVector(v[:])
	return m
}

func (ms *refMetricSeries) NewCursor() *MetricCursor {
	mc := &MetricCursor{}
	ms.cursors = append(ms.cursors, mc)
	return mc
}

func (ms *refMetricSeries) WindowMean(lo, hi int) Metrics {
	if hi <= lo {
		return Metrics{}
	}
	var sum Metrics
	for b := lo; b < hi; b++ {
		sum = sum.Add(ms.At(b))
	}
	return sum.Scale(1 / float64(hi-lo))
}

func (ms *refMetricSeries) ModeledPower(c Coefficients, n int) []float64 {
	if max := ms.Len(); n > max {
		n = max
	}
	out := make([]float64, n)
	for b := 0; b < n; b++ {
		out[b] = c.Estimate(ms.At(b))
	}
	return out
}

func sameMetricBits(a, b Metrics) bool {
	va, vb := a.Vector(), b.Vector()
	for i := range va {
		if math.Float64bits(va[i]) != math.Float64bits(vb[i]) {
			return false
		}
	}
	return true
}

// randomMetrics draws a period's metrics: usually a random subset of
// non-zero components, sometimes a single component, sometimes all zero,
// and occasionally a subnormal that underflows once scaled.
func randomMetrics(rng *sim.Rand) Metrics {
	var v [8]float64
	switch rng.Intn(10) {
	case 0: // all zero
	case 1, 2: // single component
		v[rng.Intn(8)] = rng.Float64() * 3
	default:
		for i := range v {
			if rng.Intn(2) == 0 {
				v[i] = rng.Float64() * 3
			}
		}
		if rng.Intn(20) == 0 {
			v[rng.Intn(8)] = 5e-324
		}
	}
	m, _ := MetricsFromVector(v[:])
	return m
}

// TestMetricSeriesMatchesReference drives the paged store and the
// component-major reference with identical random AddSpread sequences —
// periods straddling the 511/512 and 4095/4096 bucket boundaries, spans
// covering whole pages, single-component and all-zero writes, and
// back-writes below Len — and requires bit-identical At, Len, cursor
// DirtyLow, WindowMean and ModeledPower.
func TestMetricSeriesMatchesReference(t *testing.T) {
	const iv = sim.Time(1000)
	rng := sim.NewRand(29)
	got := NewMetricSeries(iv)
	want := newRefMetricSeries(iv)
	type pair struct{ got, want *MetricCursor }
	cursors := []pair{{got.NewCursor(), want.NewCursor()}}
	coeff := Coefficients{Core: 10, Ins: 2.5, Float: 0.3, Cache: 40, Mem: 120, Chip: 7, Disk: 3, Net: 1.5}
	boundaries := []int{metricPageSize, 2 * metricPageSize, 4096}
	check := func(step int) {
		t.Helper()
		n := got.Len()
		if n != want.Len() {
			t.Fatalf("step %d: Len = %d, want %d", step, n, want.Len())
		}
		for b := -1; b <= n+1; b++ {
			if !sameMetricBits(got.At(b), want.At(b)) {
				t.Fatalf("step %d: At(%d) = %+v, want %+v", step, b, got.At(b), want.At(b))
			}
		}
		for i, c := range cursors {
			if c.got.DirtyLow() != c.want.DirtyLow() {
				t.Fatalf("step %d: cursor %d DirtyLow = %d, want %d", step, i, c.got.DirtyLow(), c.want.DirtyLow())
			}
		}
		for _, w := range [][2]int{{0, n}, {n / 3, n/3 + 7}, {metricPageSize - 3, metricPageSize + 3}, {5, 5}, {n - 2, n + 4}} {
			if !sameMetricBits(got.WindowMean(w[0], w[1]), want.WindowMean(w[0], w[1])) {
				t.Fatalf("step %d: WindowMean(%d, %d) differs", step, w[0], w[1])
			}
		}
		for _, k := range []int{n, n + 10, n / 2, 0} {
			pg, pw := got.ModeledPower(coeff, k), want.ModeledPower(coeff, k)
			if len(pg) != len(pw) {
				t.Fatalf("step %d: ModeledPower(%d) length %d, want %d", step, k, len(pg), len(pw))
			}
			for b := range pg {
				if math.Float64bits(pg[b]) != math.Float64bits(pw[b]) {
					t.Fatalf("step %d: ModeledPower bucket %d = %v, want %v", step, b, pg[b], pw[b])
				}
			}
		}
	}
	check(-1)
	for step := 0; step < 4000; step++ {
		var t0 sim.Time
		switch rng.Intn(4) {
		case 0: // straddle a page boundary
			b := boundaries[rng.Intn(len(boundaries))]
			t0 = sim.Time(b-1)*iv + sim.Time(rng.Intn(int(2*iv)))
		case 1: // back-write below Len
			if n := got.Len(); n > 0 {
				t0 = sim.Time(rng.Intn(n)) * iv
			}
			t0 += sim.Time(rng.Intn(int(iv)))
		default: // the steady advance of a period clock
			t0 = sim.Time(got.Len())*iv - sim.Time(rng.Intn(int(2*iv)))
			if t0 < 0 {
				t0 = 0
			}
		}
		span := sim.Time(rng.Intn(int(3*iv))) + 1
		switch rng.Intn(40) {
		case 0:
			span = sim.Time(rng.Intn(3*metricPageSize)) * iv
		case 1:
			span = 0
		}
		m := randomMetrics(rng)
		got.AddSpread(t0, t0+span, m)
		want.AddSpread(t0, t0+span, m)
		switch rng.Intn(30) {
		case 0:
			cursors = append(cursors, pair{got.NewCursor(), want.NewCursor()})
		case 1, 2:
			c := cursors[rng.Intn(len(cursors))]
			c.got.Clear()
			c.want.Clear()
		}
		if step%250 == 0 {
			check(step)
		}
	}
	check(4000)
	if got.Len() <= 4097 {
		t.Fatalf("sequence reached only %d buckets; it must cross the 4096 boundary", got.Len())
	}
}

// BenchmarkMetricSeriesAddSpread times the facility's per-period metric
// write on an advancing clock: 1.1 ms periods on a 1 ms grid, so most
// periods straddle a bucket edge, as attribution periods do, and the store
// grows page by page. Every 2^16 periods (72 s simulated) it starts over
// on a fresh series, which bounds memory at any -benchtime. The reference
// sub-benchmark is the component-major store it replaced.
func BenchmarkMetricSeriesAddSpread(b *testing.B) {
	m := Metrics{Core: 0.9, Ins: 1.2, Float: 0.1, Cache: 0.01, Mem: 0.002, Chip: 0.5}
	const period = 1100 * sim.Microsecond
	run := func(b *testing.B, fresh func() func(t0, t1 sim.Time, m Metrics)) {
		b.ReportAllocs()
		var add func(t0, t1 sim.Time, m Metrics)
		var t0 sim.Time
		for i := 0; i < b.N; i++ {
			if i%(1<<16) == 0 {
				add, t0 = fresh(), 0
			}
			add(t0, t0+period, m)
			t0 += period
		}
	}
	b.Run("paged", func(b *testing.B) {
		run(b, func() func(t0, t1 sim.Time, m Metrics) { return NewMetricSeries(sim.Millisecond).AddSpread })
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func() func(t0, t1 sim.Time, m Metrics) { return newRefMetricSeries(sim.Millisecond).AddSpread })
	})
}
