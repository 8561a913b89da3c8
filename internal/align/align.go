// Package align implements §3.2: aligning delayed power-meter readings with
// real-time model estimates via signal-processing cross-correlation (Eq. 4),
// and using the aligned pairs to recalibrate the power model online.
//
// Meter samples carry only an arrival timestamp for online purposes; the
// true measurement window is arrival − delay − interval, with the delay
// unknown until estimated here.
package align

import (
	"fmt"
	"math"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// LagPoint is one point of the cross-correlation curve over hypothetical
// measurement delays (the curves of Figure 2).
type LagPoint struct {
	Delay sim.Time
	// Raw is the paper's Eq. 4 inner product.
	Raw float64
	// Normalized is the mean-subtracted, variance-normalized correlation
	// used for robust peak picking.
	Normalized float64
}

// prefixMeans answers modeled-power window means in O(1) via a prefix-sum
// table: prefix[i] holds the running sum of power[:i], so the mean over
// buckets [lo, hi) is a prefix difference and one divide instead of a bucket
// loop. The table is built once per CorrelationCurve call — O(len(power))
// amortized over O(lags × samples) queries.
type prefixMeans struct {
	interval sim.Time
	prefix   []float64
}

func newPrefixMeans(power []float64, interval sim.Time) prefixMeans {
	prefix := make([]float64, len(power)+1)
	// Neumaier-compensated running sum: construction is off the per-(lag,
	// sample) hot path, and compensation keeps each stored prefix within
	// ~1 ulp of the true sum, so window means from prefix differences stay
	// within rounding noise of the reference bucket loop even for long
	// series (the fast-vs-reference property tests pin this down).
	var sum, comp float64
	for i, v := range power {
		t := sum + v
		if a, b := math.Abs(sum), math.Abs(v); a >= b {
			comp += (sum - t) + v
		} else {
			comp += (v - t) + sum
		}
		sum = t
		prefix[i+1] = sum + comp
	}
	return prefixMeans{interval: interval, prefix: prefix}
}

// windowMean mirrors the reference modelWindowMean (ref_test.go) window
// semantics exactly (same bucket rounding, same out-of-range rejection);
// only the summation differs.
func (p prefixMeans) windowMean(t0, t1 sim.Time) (float64, bool) {
	if t1 <= t0 || t0 < 0 {
		return 0, false
	}
	lo := int(t0 / p.interval)
	hi := int((t1 + p.interval - 1) / p.interval)
	if hi >= len(p.prefix) || hi <= lo {
		return 0, false
	}
	return (p.prefix[hi] - p.prefix[lo]) / float64(hi-lo), true
}

// lagCount bounds the number of curve points for preallocation. It is only
// a capacity hint — the scan loop (with its overflow guard) remains
// authoritative — so it computes in float64 to dodge Time overflow on
// extreme ranges and clamps to a sane ceiling.
func lagCount(minDelay, maxDelay, step sim.Time) int {
	if step <= 0 || maxDelay < minDelay {
		return 0
	}
	n := (float64(maxDelay)-float64(minDelay))/float64(step) + 1
	const maxPrealloc = 1 << 20
	if !(n >= 0) {
		return 0
	}
	if n > maxPrealloc {
		return maxPrealloc
	}
	return int(n)
}

// CorrelationCurve evaluates measurement/model cross-correlation at every
// hypothetical delay in [minDelay, maxDelay] stepped by step (negative
// delays hypothesize measurements arriving before the activity they
// describe, as in Figure 2's x-axis). measured samples keep their raw
// readings; idleW is subtracted here. modelPower is the modeled active
// power per interval-wide bucket.
//
// This is the O(1)-window fast path: window means come from a prefix-sum
// table, making the scan O(lags × samples + len(modelPower)) instead of the
// reference implementation's O(lags × samples × window). Curve values may
// differ from correlationCurveRef (ref_test.go) by rounding noise only (the
// prefix difference reassociates the window summation); the per-lag
// statistics are otherwise accumulated in the identical order.
func CorrelationCurve(measured []power.Sample, idleW float64, meterInterval sim.Time,
	modelPower []float64, modelInterval sim.Time, step, minDelay, maxDelay sim.Time) []LagPoint {

	// Degenerate intervals would divide by zero in the bucket arithmetic
	// (and a zero step would loop forever); there is no meaningful curve.
	if meterInterval <= 0 || modelInterval <= 0 {
		return nil
	}
	if step <= 0 {
		step = modelInterval
	}
	if maxDelay < minDelay {
		return nil
	}
	pm := newPrefixMeans(modelPower, modelInterval)
	curve := make([]LagPoint, 0, lagCount(minDelay, maxDelay, step))
	for d := minDelay; d <= maxDelay; {
		var raw, sx, sy, sxy, sxx, syy float64
		n := 0
		for _, s := range measured {
			end := s.Arrival - d
			start := end - meterInterval
			mp, ok := pm.windowMean(start, end)
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
				// Degenerate windows (all means essentially equal) leave
				// vx/vy as pure cancellation residue, and the ratio can
				// then exceed Cauchy–Schwarz's bound; clamp to the
				// documented range.
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

// EstimateDelay returns the hypothetical delay with the highest normalized
// cross-correlation — the paper's estimate of the meter's delivery lag.
//
// Tie-breaking: the scan keeps the incumbent on equality (strict >), so
// among equal normalized peaks the earliest lag in curve order wins. This
// is a deliberate, tested contract: plateaus resolve to their leading edge
// regardless of how the curve values were summed, which is what keeps the
// fast and reference curve paths agreeing on the estimate.
func EstimateDelay(curve []LagPoint) (sim.Time, error) {
	if len(curve) == 0 {
		return 0, fmt.Errorf("align: empty correlation curve")
	}
	best := curve[0]
	for _, p := range curve[1:] {
		if p.Normalized > best.Normalized {
			best = p
		}
	}
	if best.Normalized <= 0 {
		return 0, fmt.Errorf("align: no positive correlation peak (max %.3f)", best.Normalized)
	}
	return best.Delay, nil
}

// AlignedPair is a measurement matched to the system metrics over its
// estimated true window.
type AlignedPair struct {
	WindowStart sim.Time
	WindowEnd   sim.Time
	ActiveW     float64
	M           model.Metrics
}

// AlignSamples converts delivered meter samples into aligned
// (metrics, active power) pairs using the estimated delay. Samples whose
// reconstructed window is not fully covered by the metric series are
// skipped.
func AlignSamples(measured []power.Sample, idleW float64, meterInterval sim.Time,
	ms *model.MetricSeries, delay sim.Time) []AlignedPair {

	out := make([]AlignedPair, 0, len(measured))
	horizon := sim.Time(ms.Len()) * ms.Interval()
	for _, s := range measured {
		end := s.Arrival - delay
		start := end - meterInterval
		if start < 0 || end > horizon {
			continue
		}
		lo := int(start / ms.Interval())
		hi := int(end / ms.Interval())
		if hi <= lo {
			continue
		}
		out = append(out, AlignedPair{
			WindowStart: start,
			WindowEnd:   end,
			ActiveW:     s.Watts - idleW,
			M:           ms.WindowMean(lo, hi),
		})
	}
	return out
}
