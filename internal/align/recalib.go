package align

import (
	"fmt"

	"powercontainers/internal/linalg"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// defaultRebuildEvery bounds how many FIFO evictions may pass through the
// incremental Gram downdate before an exact rebuild. Each Remove leaves
// rounding-level residue in the accumulators (float addition does not
// associate); a periodic rebuild from the pristine offline block plus the
// live online window resets that residue to zero.
const defaultRebuildEvery = 256

// Recalibrator performs the paper's measurement-aligned online model
// recalibration: it ingests newly delivered meter readings, aligns them
// with the facility's system metric series using the estimated delay, and
// refits the model over the union of offline calibration samples and online
// samples, weighed equally (§3.2).
//
// The refit path is incremental: the offline block's normal equations are
// accumulated once, online pairs fold in at Ingest and fold out on
// MaxOnline eviction, so Refit pays only the O(k³) solve instead of
// re-accumulating O(offline+online) samples. refitReference retains the
// original batch path; the incremental path falls back to it whenever the
// fit plan changes under it or an accumulator operation fails.
type Recalibrator struct {
	// Meter supplies online measurements.
	Meter power.Meter
	// Scope selects the regression target: package-scope against an
	// on-chip meter, machine-scope against a wall meter.
	Scope model.FitScope
	// Offline holds the original calibration samples.
	Offline []model.CalSample
	// MaxOnline bounds the retained online sample set (FIFO eviction).
	MaxOnline int
	// MinOnline is the number of online samples required before the
	// first refit.
	MinOnline int
	// AutoAlignAfter is how many delivered samples to accumulate before
	// estimating the delay; until then Ingest buffers without aligning.
	AutoAlignAfter int
	// MaxDelay bounds the delay search.
	MaxDelay sim.Time
	// RebuildEvery is how many evicted samples the incremental Gram may
	// absorb via downdates before an exact rebuild (0 selects the
	// default). Lower values cost more rebuild work; higher values let
	// rounding residue ride longer between resets.
	RebuildEvery int
	// Robust configures MAD-based outlier rejection and refit sanity
	// gating (robust.go); the zero value disables both.
	Robust Robust
	// Audit, when non-nil, observes degradation actions (rejections,
	// fallbacks) for invariant checking.
	Audit AuditSink

	delay      sim.Time
	delayKnown bool
	online     []model.CalSample
	seen       int
	buffered   []power.Sample
	refits     int
	rejected   int
	fallbacks  int
	lastFitErr error

	// Incremental normal-equation state. plan is the layout the grams were
	// accumulated under; gramOff latches the batch fallback after any
	// accumulator failure (a sample the plan rejects, an underflowing
	// Remove) so a half-updated Gram is never solved.
	plan      model.FitPlan
	planKnown bool
	offGram   *linalg.Gram
	gram      *linalg.Gram
	evictions int
	gramOff   bool

	// Incremental modeled-power cache for the delay search: mp mirrors
	// ms.ModeledPower(mpCoeff, len(mp)) and is extended/patched from
	// mpCursor, this recalibrator's dirty mark on the metric series,
	// instead of being rebuilt on every delay-unknown Ingest.
	mp       []float64
	mpCoeff  model.Coefficients
	mpValid  bool
	mpCursor *model.MetricCursor

	// lastNow is the most recent Ingest time, used to stamp audit events
	// emitted from Refit (which has no clock of its own).
	lastNow sim.Time
}

// NewRecalibrator returns a recalibrator with sensible defaults for the
// given meter: the delay search spans 10× the meter interval plus 2 s.
func NewRecalibrator(meter power.Meter, scope model.FitScope, offline []model.CalSample) *Recalibrator {
	return &Recalibrator{
		Meter:          meter,
		Scope:          scope,
		Offline:        offline,
		MaxOnline:      4000,
		MinOnline:      8,
		AutoAlignAfter: 10,
		MaxDelay:       2*sim.Second + 2*meter.Interval(),
		RebuildEvery:   defaultRebuildEvery,
	}
}

// Delay returns the estimated measurement delay and whether it is known yet.
func (r *Recalibrator) Delay() (sim.Time, bool) { return r.delay, r.delayKnown }

// SetDelay fixes the delay explicitly (used when a prior alignment run
// already measured it; the paper notes the lag on a given system is
// unlikely to change dynamically).
func (r *Recalibrator) SetDelay(d sim.Time) {
	r.delay = d
	r.delayKnown = true
}

// OnlineCount returns the number of retained online samples.
func (r *Recalibrator) OnlineCount() int { return len(r.online) }

// Refits returns how many successful refits have been performed.
func (r *Recalibrator) Refits() int { return r.refits }

// Delivered returns how many meter samples have reached the recalibrator —
// the freshness signal the meter-health watchdog (core) monitors to detect
// a dead meter.
func (r *Recalibrator) Delivered() int { return r.seen }

// Rejected returns how many aligned pairs robust ingestion has discarded.
func (r *Recalibrator) Rejected() int { return r.rejected }

// Fallbacks returns how many divergent refits fell back to the offline fit.
func (r *Recalibrator) Fallbacks() int { return r.fallbacks }

// readFresh pulls meter samples not seen by a previous Ingest. Meters that
// implement power.SinceReader skip rematerializing the already-consumed
// prefix — without it, every Ingest re-derives all samples since time zero.
func (r *Recalibrator) readFresh(now sim.Time) []power.Sample {
	fresh, seen := power.ReadFresh(r.Meter, now, r.seen)
	r.seen = seen
	return fresh
}

// modeledPower returns the modeled active power series under current,
// recomputing only buckets at or above the recalibrator's cursor on ms
// since the previous call. The cursor is registered on first use, so every
// call must pass the same series (the facility's, in Ingest); a fresh
// cursor is fully dirty. A coefficient change invalidates the whole cache.
// Recomputed buckets get the identical c.Estimate(ms.At(b)) evaluation the
// batch path performs, so the cached series is bit-identical to
// ms.ModeledPower(current, ms.Len()).
func (r *Recalibrator) modeledPower(ms *model.MetricSeries, current model.Coefficients) []float64 {
	if r.mpCursor == nil {
		r.mpCursor = ms.NewCursor()
	}
	n := ms.Len()
	from := 0
	if r.mpValid && current == r.mpCoeff {
		from = len(r.mp)
		if d := r.mpCursor.DirtyLow(); d < from {
			from = d
		}
	}
	if cap(r.mp) < n {
		grown := make([]float64, n)
		copy(grown, r.mp[:from])
		r.mp = grown
	} else {
		r.mp = r.mp[:n]
	}
	for b := from; b < n; b++ {
		r.mp[b] = current.Estimate(ms.At(b))
	}
	r.mpCursor.Clear()
	r.mpCoeff = current
	r.mpValid = true
	return r.mp
}

// Ingest pulls newly delivered meter samples at time now, aligns them
// against the metric series, and appends online calibration samples.
// It returns the number of new online samples.
func (r *Recalibrator) Ingest(now sim.Time, ms *model.MetricSeries, current model.Coefficients) int {
	r.lastNow = now
	fresh := r.readFresh(now)
	if len(fresh) == 0 {
		return 0
	}
	r.buffered = append(r.buffered, fresh...)

	if !r.delayKnown {
		if len(r.buffered) < r.AutoAlignAfter {
			return 0
		}
		modelPower := r.modeledPower(ms, current)
		curve := CorrelationCurve(r.buffered, r.Meter.IdleW(), r.Meter.Interval(),
			modelPower, ms.Interval(), ms.Interval(), 0, r.MaxDelay)
		d, err := EstimateDelay(curve)
		if err != nil {
			r.lastFitErr = err
			return 0
		}
		r.delay = d
		r.delayKnown = true
	}

	pairs := AlignSamples(r.buffered, r.Meter.IdleW(), r.Meter.Interval(), ms, r.delay)
	r.buffered = r.buffered[:0]
	if r.Robust.Enabled {
		pairs = r.rejectOutliers(now, pairs, current)
	}
	r.syncPlan(current)
	added := 0
	for _, p := range pairs {
		s := model.CalSample{M: p.M, Weight: 1}
		if r.Scope == model.ScopePackage {
			s.PkgActiveW = p.ActiveW
			s.MachineActiveW = p.ActiveW // unused in package scope
		} else {
			s.MachineActiveW = p.ActiveW
		}
		r.online = append(r.online, s)
		r.gramAdd(s)
		added++
	}
	if over := len(r.online) - r.MaxOnline; over > 0 {
		for _, s := range r.online[:over] {
			r.gramRemove(s)
		}
		r.online = append(r.online[:0], r.online[over:]...)
		r.evictions += over
		r.maybeRebuild()
	}
	return added
}

// syncPlan keeps the incremental grams in step with the fit plan derived
// from the coefficients Ingest observes. core.RecalibrateNow passes the
// same coefficients to Ingest and the following Refit, so the plan derived
// here is the one Refit will want; if a caller refits under a different
// plan anyway, Refit detects the mismatch and takes the batch path.
func (r *Recalibrator) syncPlan(current model.Coefficients) {
	if r.gramOff {
		return
	}
	plan := model.FitPlan{Scope: r.Scope, IncludeChipShare: current.IncludesChipShare}
	if r.planKnown && plan == r.plan && r.gram != nil {
		return
	}
	r.plan = plan
	r.planKnown = true
	r.rebuildGrams()
}

// rebuildGrams reaccumulates the offline block and the live online window
// from scratch under the current plan — the exact accumulation a batch
// model.Fit over offline+online would perform, and therefore bit-identical
// to it.
func (r *Recalibrator) rebuildGrams() {
	off, err := model.FitGram(r.Offline, r.plan)
	if err != nil {
		r.disableGram(err)
		return
	}
	r.offGram = off
	g := off.Clone()
	for _, s := range r.online {
		if err := r.plan.Fold(g, s); err != nil {
			r.disableGram(err)
			return
		}
	}
	r.gram = g
	r.evictions = 0
}

// maybeRebuild resets downdate rounding residue after enough evictions.
func (r *Recalibrator) maybeRebuild() {
	if r.gram == nil || r.gramOff {
		return
	}
	every := r.RebuildEvery
	if every <= 0 {
		every = defaultRebuildEvery
	}
	if r.evictions < every {
		return
	}
	g := r.offGram.Clone()
	for _, s := range r.online {
		if err := r.plan.Fold(g, s); err != nil {
			r.disableGram(err)
			return
		}
	}
	r.gram = g
	r.evictions = 0
}

func (r *Recalibrator) gramAdd(s model.CalSample) {
	if r.gram == nil || r.gramOff {
		return
	}
	if err := r.plan.Fold(r.gram, s); err != nil {
		r.disableGram(err)
	}
}

func (r *Recalibrator) gramRemove(s model.CalSample) {
	if r.gram == nil || r.gramOff {
		return
	}
	if err := r.plan.Unfold(r.gram, s); err != nil {
		r.disableGram(err)
	}
}

// disableGram latches the batch-refit fallback: a failed accumulator
// operation leaves the Gram half-updated, so it must never be solved.
func (r *Recalibrator) disableGram(err error) {
	r.gram = nil
	r.offGram = nil
	r.gramOff = true
	r.planKnown = false
	r.lastFitErr = err
}

// Refit fits the model over offline+online samples, equally weighted. The
// base coefficients supply any terms outside the fitted scope. When the
// incremental Gram matches the requested plan it is solved directly
// (O(k³)); otherwise the batch reference path runs. With Robust enabled, a
// successful fit additionally passes the sanity gate: a divergent result
// is replaced by the offline-only fit (robust.go).
func (r *Recalibrator) Refit(base model.Coefficients) (model.Coefficients, error) {
	c, err := r.refit(base)
	if err != nil || !r.Robust.Enabled {
		return c, err
	}
	return r.saneOrFallback(r.lastNow, base, c)
}

func (r *Recalibrator) refit(base model.Coefficients) (model.Coefficients, error) {
	if len(r.online) < r.MinOnline {
		return base, fmt.Errorf("align: only %d online samples (need %d)", len(r.online), r.MinOnline)
	}
	plan := model.FitPlan{Scope: r.Scope, IncludeChipShare: base.IncludesChipShare}
	if r.gram == nil || !r.planKnown || plan != r.plan {
		return r.refitReference(base)
	}
	c, err := model.FitFromGram(r.gram, model.FitOptions{
		Scope:            r.Scope,
		IncludeChipShare: base.IncludesChipShare,
		IdleW:            base.IdleW,
		Base:             base,
	})
	if err != nil {
		r.lastFitErr = err
		return base, err
	}
	r.refits++
	return c, nil
}

// refitReference is the original batch refit, retained both as the fallback
// for plan changes mid-stream and as the reference implementation the
// incremental path is property-tested against.
func (r *Recalibrator) refitReference(base model.Coefficients) (model.Coefficients, error) {
	combined := make([]model.CalSample, 0, len(r.Offline)+len(r.online))
	combined = append(combined, r.Offline...)
	combined = append(combined, r.online...)
	c, err := model.Fit(combined, model.FitOptions{
		Scope:            r.Scope,
		IncludeChipShare: base.IncludesChipShare,
		IdleW:            base.IdleW,
		Base:             base,
	})
	if err != nil {
		r.lastFitErr = err
		return base, err
	}
	r.refits++
	return c, nil
}
