// Package model implements the paper's event-driven multicore power model:
// the metric vector of §3.1, the Eq. 1 (core-level events only) and Eq. 2
// (plus shared chip maintenance power) linear estimators, least-squares
// coefficient fitting, and the bucketed system-wide metric series that the
// alignment/recalibration machinery (§3.2) regresses against measured power.
package model

import (
	"fmt"
	"math"

	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// Metrics is the model input vector for one sampling period. CPU metrics
// are rates per *elapsed* core cycle, so a half-utilized core contributes
// half the rates of a fully-busy one:
//
//	Core  — non-halt cycles / elapsed cycles (utilization, Mcore)
//	Ins   — retired instructions per elapsed cycle (Mins)
//	Float — floating point ops per elapsed cycle (Mfloat)
//	Cache — last-level cache references per elapsed cycle (Mcache)
//	Mem   — memory transactions per elapsed cycle (Mmem)
//	Chip  — share of on-chip maintenance power, Eq. 3 (Mchipshare)
//	Disk, Net — device utilization fractions
//
// For a single task the metrics describe the core it runs on; for the whole
// system they are summed over cores (Chip then approximates the number of
// active chips, since the shares on one chip sum to ≈1).
type Metrics struct {
	Core  float64
	Ins   float64
	Float float64
	Cache float64
	Mem   float64
	Chip  float64
	Disk  float64
	Net   float64
}

// Add returns the element-wise sum.
func (m Metrics) Add(o Metrics) Metrics {
	return Metrics{
		Core: m.Core + o.Core, Ins: m.Ins + o.Ins, Float: m.Float + o.Float,
		Cache: m.Cache + o.Cache, Mem: m.Mem + o.Mem, Chip: m.Chip + o.Chip,
		Disk: m.Disk + o.Disk, Net: m.Net + o.Net,
	}
}

// Scale returns m with every field multiplied by f.
func (m Metrics) Scale(f float64) Metrics {
	return Metrics{
		Core: m.Core * f, Ins: m.Ins * f, Float: m.Float * f,
		Cache: m.Cache * f, Mem: m.Mem * f, Chip: m.Chip * f,
		Disk: m.Disk * f, Net: m.Net * f,
	}
}

// Max returns the element-wise maximum; calibration uses it to report the
// paper's C·Mmax table (§4.1).
func (m Metrics) Max(o Metrics) Metrics {
	mx := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	return Metrics{
		Core: mx(m.Core, o.Core), Ins: mx(m.Ins, o.Ins), Float: mx(m.Float, o.Float),
		Cache: mx(m.Cache, o.Cache), Mem: mx(m.Mem, o.Mem), Chip: mx(m.Chip, o.Chip),
		Disk: mx(m.Disk, o.Disk), Net: mx(m.Net, o.Net),
	}
}

// MetricNames lists the metric vector components in canonical order.
var MetricNames = []string{"core", "ins", "float", "cache", "mem", "chipshare", "disk", "net"}

// Vector returns the metrics in canonical order.
func (m Metrics) Vector() []float64 {
	return []float64{m.Core, m.Ins, m.Float, m.Cache, m.Mem, m.Chip, m.Disk, m.Net}
}

// MetricsFromVector is the inverse of Vector.
func MetricsFromVector(v []float64) (Metrics, error) {
	if len(v) != 8 {
		return Metrics{}, fmt.Errorf("model: metric vector has %d entries, want 8", len(v))
	}
	return Metrics{
		Core: v[0], Ins: v[1], Float: v[2], Cache: v[3],
		Mem: v[4], Chip: v[5], Disk: v[6], Net: v[7],
	}, nil
}

// Coefficients holds the calibrated linear model parameters (the C's of
// Eq. 1/2) plus the machine's constant idle power for reference. A zero
// Chip coefficient with IncludesChipShare=false is the paper's Approach #1;
// with the chip term it is Approach #2/3.
type Coefficients struct {
	IdleW float64 // Cidle — constant, not part of the active model

	Core  float64
	Ins   float64
	Float float64
	Cache float64
	Mem   float64
	Chip  float64
	Disk  float64
	Net   float64

	// IncludesChipShare records whether the chip maintenance term was
	// part of the fit (Eq. 2) or excluded (Eq. 1).
	IncludesChipShare bool
}

// Vector returns the coefficients in canonical metric order.
func (c Coefficients) Vector() []float64 {
	return []float64{c.Core, c.Ins, c.Float, c.Cache, c.Mem, c.Chip, c.Disk, c.Net}
}

// EstimateCPU returns the modeled active power of the processor-side terms
// only (everything except disk/net) — the per-task and package-scope
// estimate.
func (c Coefficients) EstimateCPU(m Metrics) float64 {
	return c.Core*m.Core + c.Ins*m.Ins + c.Float*m.Float +
		c.Cache*m.Cache + c.Mem*m.Mem + c.Chip*m.Chip
}

// Estimate returns the modeled whole-machine active power including device
// terms.
func (c Coefficients) Estimate(m Metrics) float64 {
	return c.EstimateCPU(m) + c.Disk*m.Disk + c.Net*m.Net
}

func (c Coefficients) String() string {
	return fmt.Sprintf("Coefficients{idle=%.1f core=%.2f ins=%.2f float=%.2f cache=%.1f mem=%.1f chip=%.2f disk=%.2f net=%.2f}",
		c.IdleW, c.Core, c.Ins, c.Float, c.Cache, c.Mem, c.Chip, c.Disk, c.Net)
}

// MetricSeries stores time-weighted system-wide metrics on a fixed bucket
// grid: bucket b of each component holds the time-average of that metric
// over the bucket, summed across cores. The facility feeds it from every
// attribution period; recalibration regresses its buckets against aligned
// meter readings, and the modeled-power trace for alignment is computed
// from it.
//
// Storage is bucket-major and paged: each bucket is one 64-byte row of the
// eight components in canonical order, so a period's spread and a reader's
// At touch one row per bucket. Rows live in fixed 32 KB pages of
// metricPageSize buckets (see stats.Pages), so growth with elapsed time
// allocates a page and never copies earlier ones.
//
// Consumers that keep an incremental copy of something derived from the
// buckets (the recalibrator's modeled-power cache) each register a
// MetricCursor: every write lowers every cursor to the first bucket it
// touched, and each consumer clears its own.
type MetricSeries struct {
	interval sim.Time
	pages    stats.Pages[[metricPageSize][8]float64]
	n        int // buckets touched so far
	cursors  []*MetricCursor
}

// A metric page is 512 rows of 8 components: 32 KB, the largest
// small-object size class.
const (
	metricPageBits = 9
	metricPageSize = 1 << metricPageBits
	metricPageMask = metricPageSize - 1
)

// NewMetricSeries returns a metric series on the given bucket grid.
func NewMetricSeries(interval sim.Time) *MetricSeries {
	return &MetricSeries{interval: interval}
}

// Interval returns the bucket width.
func (ms *MetricSeries) Interval() sim.Time { return ms.interval }

// Len returns the number of buckets touched.
func (ms *MetricSeries) Len() int { return ms.n }

// row addresses bucket b, which must be below Len.
func (ms *MetricSeries) row(b int) *[8]float64 {
	return &ms.pages[b>>metricPageBits][b&metricPageMask]
}

// AddSpread accumulates a period's metrics over [t0, t1): each bucket gains
// metric × (overlap / interval), so a fully covered bucket of a fully
// utilized core accumulates Core = 1. Only non-zero components are
// written, and an all-zero period writes nothing (no growth, no cursor
// mark).
func (ms *MetricSeries) AddSpread(t0, t1 sim.Time, m Metrics) {
	if t1 <= t0 {
		return
	}
	if m == (Metrics{}) {
		return
	}
	v := [8]float64{m.Core, m.Ins, m.Float, m.Cache, m.Mem, m.Chip, m.Disk, m.Net}
	total := float64(t1 - t0)
	//pclint:allow floatsafe series are constructed with a positive bucket interval
	scale := total / float64(ms.interval)
	// Each component's per-bucket share is (v*scale)*overlap/total,
	// evaluated in that order: the same rounding as spreading v*scale
	// over the period one component at a time.
	for i := range v {
		v[i] *= scale
	}
	first := t0 / ms.interval
	last := (t1 - 1) / ms.interval
	if n := int(last) + 1; n > ms.n {
		ms.pages.Grow((n-1)>>metricPageBits + 1)
		ms.n = n
	}
	for b := first; b <= last; b++ {
		lo := b * ms.interval
		hi := lo + ms.interval
		if lo < t0 {
			lo = t0
		}
		if hi > t1 {
			hi = t1
		}
		w := float64(hi - lo)
		row := ms.row(int(b))
		for i, x := range v {
			//pclint:allow floatsafe exact-zero fast path: a component that was never observed leaves its lane untouched
			if x == 0 {
				continue
			}
			//pclint:allow floatsafe total = t1-t0 is positive: the empty and reversed cases returned above
			row[i] += x * w / total
		}
	}
	for _, c := range ms.cursors {
		if int(first) < c.lo {
			c.lo = int(first)
		}
	}
}

// At returns the time-averaged metrics of bucket b.
func (ms *MetricSeries) At(b int) Metrics {
	if b < 0 || b >= ms.n {
		return Metrics{}
	}
	r := ms.row(b)
	return Metrics{
		Core: r[0], Ins: r[1], Float: r[2], Cache: r[3],
		Mem: r[4], Chip: r[5], Disk: r[6], Net: r[7],
	}
}

// MetricCursor is one consumer's dirty low-water mark over a MetricSeries:
// the lowest bucket written since the consumer last called Clear. Writes are
// not append-only (device I/O spreads energy over past buckets, and
// per-core periods close at different times), so a low-water mark is the
// cheapest sound summary of what may have changed.
type MetricCursor struct {
	lo int
}

// NewCursor registers a cursor. It starts at bucket 0, fully dirty, so its
// consumer's first pass also sees every bucket written before it existed.
func (ms *MetricSeries) NewCursor() *MetricCursor {
	mc := &MetricCursor{}
	ms.cursors = append(ms.cursors, mc)
	return mc
}

// DirtyLow returns the lowest bucket written since Clear; any value ≥ the
// series' Len() means no bucket changed.
func (mc *MetricCursor) DirtyLow() int { return mc.lo }

// Clear marks everything seen, without touching other cursors.
func (mc *MetricCursor) Clear() { mc.lo = math.MaxInt }

// WindowMean returns the mean metrics over buckets [lo, hi).
func (ms *MetricSeries) WindowMean(lo, hi int) Metrics {
	if hi <= lo {
		return Metrics{}
	}
	var sum Metrics
	for b := lo; b < hi; b++ {
		sum = sum.Add(ms.At(b))
	}
	return sum.Scale(1 / float64(hi-lo))
}

// ModeledPower returns the modeled active power series (watts per bucket)
// under the given coefficients, for buckets [0, n).
func (ms *MetricSeries) ModeledPower(c Coefficients, n int) []float64 {
	if max := ms.Len(); n > max {
		n = max
	}
	out := make([]float64, n)
	for b := 0; b < n; b++ {
		out[b] = c.Estimate(ms.At(b))
	}
	return out
}
