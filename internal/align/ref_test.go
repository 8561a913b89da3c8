package align

import (
	"math"

	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// modelWindowMean averages the modeled active power series (1-bucket
// resolution `interval`) over [t0, t1). Returns ok=false when the window
// falls outside the series.
func modelWindowMean(modelPower []float64, interval, t0, t1 sim.Time) (float64, bool) {
	if t1 <= t0 || t0 < 0 {
		return 0, false
	}
	lo := int(t0 / interval)
	hi := int((t1 + interval - 1) / interval)
	if hi > len(modelPower) {
		return 0, false
	}
	var sum float64
	n := 0
	for b := lo; b < hi; b++ {
		sum += modelPower[b]
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// correlationCurveRef is the original O(lags × samples × window)
// implementation, retained as the reference CorrelationCurve is
// property-tested and benchmarked against. The only change from the original is the
// range clamp below, which fuzzing showed is needed in both paths:
// even exact window means leave vx/vy as cancellation residue on
// degenerate inputs, letting the ratio exceed 1.
func correlationCurveRef(measured []power.Sample, idleW float64, meterInterval sim.Time,
	modelPower []float64, modelInterval sim.Time, step, minDelay, maxDelay sim.Time) []LagPoint {

	if meterInterval <= 0 || modelInterval <= 0 {
		return nil
	}
	if step <= 0 {
		step = modelInterval
	}
	var curve []LagPoint
	for d := minDelay; d <= maxDelay; {
		var raw, sx, sy, sxy, sxx, syy float64
		n := 0
		for _, s := range measured {
			end := s.Arrival - d
			start := end - meterInterval
			mp, ok := modelWindowMean(modelPower, modelInterval, start, end)
			if !ok {
				continue
			}
			x := s.Watts - idleW
			raw += x * mp
			sx += x
			sy += mp
			sxy += x * mp
			sxx += x * x
			syy += mp * mp
			n++
		}
		norm := 0.0
		if n >= 2 {
			cov := sxy - sx*sy/float64(n)
			vx := sxx - sx*sx/float64(n)
			vy := syy - sy*sy/float64(n)
			if vx > 0 && vy > 0 {
				norm = cov / math.Sqrt(vx*vy)
				if norm > 1 {
					norm = 1
				} else if norm < -1 {
					norm = -1
				}
			}
		}
		curve = append(curve, LagPoint{Delay: d, Raw: raw, Normalized: norm})
		next := d + step
		if next <= d { // overflow guard: a huge step must still terminate
			break
		}
		d = next
	}
	return curve
}
