package stream_test

import (
	"math"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/model"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// refModeled is the engine's former modeled-power cache: a bounded ring
// holding, per metric bucket, the modeled active power under the
// facility's coefficients, patched from its own metric cursor after every
// tick and rebuilt across the whole ring on any coefficient change. It is
// the reference the on-demand per-tick evaluation must match bit for bit.
type refModeled struct {
	fac    *core.Facility
	ring   *stats.Ring
	cursor *model.MetricCursor
	coeff  model.Coefficients
	valid  bool
}

func newRefModeled(fac *core.Facility, window int) *refModeled {
	ms := fac.Metrics()
	return &refModeled{fac: fac, ring: stats.NewRing(ms.Interval(), window), cursor: ms.NewCursor()}
}

// patch brings the ring up to date with the metric series.
func (r *refModeled) patch() {
	ms := r.fac.Metrics()
	cur := r.fac.Coeff
	n := ms.Len()
	from := r.ring.Len()
	if r.valid && cur == r.coeff {
		if d := r.cursor.DirtyLow(); d < from {
			from = d
		}
	} else {
		from = r.ring.Lo()
		r.coeff = cur
		r.valid = true
	}
	if from < r.ring.Lo() {
		from = r.ring.Lo()
	}
	for b := from; b < n; b++ {
		v := cur.Estimate(ms.At(b))
		if b < r.ring.Len() {
			r.ring.Set(b, v)
		} else {
			r.ring.Append(v)
		}
	}
	r.cursor.Clear()
}

// tickMean averages the retained slots covering tick [t-tick, t).
func (r *refModeled) tickMean(t, tick sim.Time) float64 {
	iv := r.ring.Interval()
	lo := int((t - tick) / iv)
	hi := int(t / iv)
	var sum float64
	n := 0
	for b := lo; b < hi; b++ {
		if v, ok := r.ring.At(b); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestModeledWMatchesRingReference pins the on-demand modeled power
// against the ring cache it replaced, over a recalibrated run whose
// coefficients change nearly every tick (each change rebuilt the whole
// ring). A window of 150 buckets still covers a 100-bucket tick but makes
// the ring evict throughout the run.
func TestModeledWMatchesRingReference(t *testing.T) {
	for _, window := range []int{0, 150} {
		cfg := stream.Config{Tick: 100 * sim.Millisecond, ModelWindow: window}
		bed := deployBed(t, core.ApproachRecalibrated, 31, workload.GAE{}, 0.4)
		e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage}, cfg)
		ref := newRefModeled(bed.m.Fac, e.Config().ModelWindow)
		var col stream.Collector
		e.Sink = &col

		changes := 0
		prev := bed.m.Fac.Coeff
		for e.Now() < bed.end() {
			e.RunTicks(1)
			ref.patch()
			if bed.m.Fac.Coeff != prev {
				changes++
				prev = bed.m.Fac.Coeff
			}
			sys := col.Records[len(col.Records)-1]
			if sys.Kind != stream.KindSystem {
				t.Fatalf("window %d tick %d: last record kind %v, want system", window, e.Tick(), sys.Kind)
			}
			want := ref.tickMean(e.Now(), e.Config().Tick)
			if math.Float64bits(sys.ModeledW) != math.Float64bits(want) {
				t.Fatalf("window %d tick %d: ModeledW %v, ring reference %v", window, e.Tick(), sys.ModeledW, want)
			}
		}
		if changes < e.Tick()/2 {
			t.Fatalf("window %d: coefficients changed on %d of %d ticks; the reference needs frequent refits", window, changes, e.Tick())
		}
	}
}
