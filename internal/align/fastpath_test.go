package align

import (
	"math"
	"testing"

	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
)

// closeEnough is the tight relative tolerance the fast paths must hold on
// benign (physically plausible) inputs: rounding noise from reassociating a
// window sum, nothing more.
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// TestCorrelationCurveFastMatchesReference replays the fuzz corpus seeds
// (same massaging as the fuzz harness) plus realistic synthetic alignment
// scenarios through both curve implementations, asserting point-for-point
// agreement within tight tolerance and an identical EstimateDelay outcome.
func TestCorrelationCurveFastMatchesReference(t *testing.T) {
	cases := make([]curveFuzzCase, 0, len(curveCorpusSeeds)+2)
	for _, s := range curveCorpusSeeds {
		cases = append(cases, massageCurveInputs(s.data, s.meterIv, s.modelIv, s.step, s.minD, s.maxD, s.idleW))
	}
	// Chip-meter-shaped: fine meter windows, small lag range.
	mpFine, fine := synthSeries(3000, sim.Millisecond, 7*sim.Millisecond, 20, 1)
	cases = append(cases, curveFuzzCase{
		measured: fine, modelPower: mpFine, idleW: 20,
		meterIv: sim.Millisecond, modelIv: sim.Millisecond,
		step: sim.Millisecond, minD: -50 * sim.Millisecond, maxD: 50 * sim.Millisecond,
	})
	// Wattsup-shaped: coarse meter windows over fine model buckets — the
	// configuration where the window loop used to dominate.
	mpCoarse, coarse := synthSeries(30000, sim.Second, 1200*sim.Millisecond, 150, 2)
	cases = append(cases, curveFuzzCase{
		measured: coarse, modelPower: mpCoarse, idleW: 150,
		meterIv: sim.Second, modelIv: sim.Millisecond,
		step: 5 * sim.Millisecond, minD: 0, maxD: 2 * sim.Second,
	})

	for ci, c := range cases {
		fast := CorrelationCurve(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		ref := correlationCurveRef(c.measured, c.idleW, c.meterIv, c.modelPower, c.modelIv, c.step, c.minD, c.maxD)
		if len(fast) != len(ref) {
			t.Fatalf("case %d: fast curve has %d points, reference %d", ci, len(fast), len(ref))
		}
		for i := range ref {
			if fast[i].Delay != ref[i].Delay {
				t.Fatalf("case %d point %d: lag %d vs %d", ci, i, fast[i].Delay, ref[i].Delay)
			}
			if !closeEnough(fast[i].Raw, ref[i].Raw) {
				t.Fatalf("case %d delay %d: raw %v vs %v", ci, ref[i].Delay, fast[i].Raw, ref[i].Raw)
			}
			if !closeEnough(fast[i].Normalized, ref[i].Normalized) {
				t.Fatalf("case %d delay %d: normalized %v vs %v", ci, ref[i].Delay, fast[i].Normalized, ref[i].Normalized)
			}
		}
		dFast, errFast := EstimateDelay(fast)
		dRef, errRef := EstimateDelay(ref)
		if (errFast == nil) != (errRef == nil) {
			t.Fatalf("case %d: estimate outcome diverged: fast err %v, ref err %v", ci, errFast, errRef)
		}
		if errRef == nil && dFast != dRef {
			t.Fatalf("case %d: estimated delay %s (fast) vs %s (ref)", ci, sim.FormatTime(dFast), sim.FormatTime(dRef))
		}
	}
}

// TestEstimateDelayTieBreak pins the documented tie-breaking contract: among
// equal normalized peaks, the earliest lag in curve order wins.
func TestEstimateDelayTieBreak(t *testing.T) {
	plateau := []LagPoint{
		{Delay: 0, Normalized: 0.5},
		{Delay: 1, Normalized: 0.9},
		{Delay: 2, Normalized: 0.9},
		{Delay: 3, Normalized: 0.9},
		{Delay: 4, Normalized: 0.2},
	}
	d, err := EstimateDelay(plateau)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("plateau resolved to delay %d, want leading edge 1", d)
	}
	// The first point itself can be the incumbent peak.
	leading := []LagPoint{
		{Delay: 10, Normalized: 0.7},
		{Delay: 11, Normalized: 0.7},
	}
	if d, err := EstimateDelay(leading); err != nil || d != 10 {
		t.Fatalf("leading plateau: delay %d err %v, want 10", d, err)
	}
}

// incrementalMeter serves synthetic samples like fakeMeter but counts Read
// calls so tests can confirm the SinceReader path is NOT taken (fakeMeter
// does not implement it — the fallback must keep working).
type incrementalMeter struct {
	fakeMeter
	reads int
}

func (m *incrementalMeter) Read(now sim.Time) []power.Sample {
	m.reads++
	return m.fakeMeter.Read(now)
}

// buildRecalibScenario reproduces the TestRecalibratorLearnsShiftedModel
// setup: a metric series, meter samples from a shifted truth model, and a
// small offline block.
func buildRecalibScenario(t *testing.T) (*model.MetricSeries, []power.Sample, []model.CalSample) {
	t.Helper()
	ms := model.NewMetricSeries(sim.Millisecond)
	rng := sim.NewRand(5)
	const delay = 10 * sim.Millisecond
	for b := sim.Time(0); b < 4000; b++ {
		m := model.Metrics{Core: 2 + rng.Float64(), Ins: rng.Float64() * 3, Mem: rng.Float64() * 0.02}
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, m)
	}
	var samples []power.Sample
	for w := sim.Time(0); w < 400; w++ {
		lo, hi := int(w*10), int((w+1)*10)
		m := ms.WindowMean(lo, hi)
		truth := 8*m.Core + 1*m.Ins + 500*m.Mem
		samples = append(samples, power.Sample{
			Start:   w * 10 * sim.Millisecond,
			Arrival: (w+1)*10*sim.Millisecond + delay,
			Watts:   truth + 30 + rng.NormFloat64(0.2),
		})
	}
	var offline []model.CalSample
	for i := 0; i < 4; i++ {
		m := model.Metrics{Core: float64(i + 1), Ins: float64(i)}
		offline = append(offline, model.CalSample{
			M: m, MachineActiveW: 8*m.Core + m.Ins, PkgActiveW: math.NaN(),
		})
	}
	return ms, samples, offline
}

// coeffFields enumerates a Coefficients value for tolerance comparison.
func coeffFields(c model.Coefficients) map[string]float64 {
	return map[string]float64{
		"core": c.Core, "ins": c.Ins, "float": c.Float, "cache": c.Cache,
		"mem": c.Mem, "chip": c.Chip, "disk": c.Disk, "net": c.Net,
	}
}

// TestRecalibratorIncrementalMatchesBatch streams samples through a
// recalibrator with a small online window and frequent rebuilds, so the
// incremental Gram sees adds, eviction downdates, and periodic exact
// rebuilds. After every refit the result must match a from-scratch batch
// fit over offline+online — exactly before the first eviction, and within
// rounding-level tolerance after downdates.
func TestRecalibratorIncrementalMatchesBatch(t *testing.T) {
	ms, samples, offline := buildRecalibScenario(t)
	base := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	meter := &incrementalMeter{fakeMeter: fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}}
	r := NewRecalibrator(meter, model.ScopeMachine, offline)
	r.MaxDelay = 100 * sim.Millisecond
	r.MaxOnline = 64
	r.RebuildEvery = 16

	refits := 0
	totalAdded := 0
	current := base
	for now := 250 * sim.Millisecond; now <= 5*sim.Second; now += 250 * sim.Millisecond {
		added := r.Ingest(now, ms, current)
		if added == 0 {
			continue
		}
		totalAdded += added
		// Eviction happens inside Ingest the moment the window overflows.
		evicted := totalAdded > r.MaxOnline
		if len(r.online) > r.MaxOnline {
			t.Fatalf("online window %d exceeds MaxOnline %d", len(r.online), r.MaxOnline)
		}
		got, err := r.Refit(current)
		if err != nil {
			continue
		}
		refits++
		want, err := model.Fit(append(append([]model.CalSample(nil), offline...), r.online...), model.FitOptions{
			Scope:            model.ScopeMachine,
			IncludeChipShare: current.IncludesChipShare,
			IdleW:            current.IdleW,
			Base:             current,
		})
		if err != nil {
			t.Fatalf("t=%s: batch reference fit failed: %v", sim.FormatTime(now), err)
		}
		gotF, wantF := coeffFields(got), coeffFields(want)
		for name, w := range wantF {
			g := gotF[name]
			if !evicted {
				if g != w {
					t.Fatalf("t=%s (pre-eviction): %s = %v, batch %v — must be bit-identical", sim.FormatTime(now), name, g, w)
				}
			} else if !closeEnough(g, w) {
				t.Fatalf("t=%s: %s = %v, batch %v — drifted past tolerance", sim.FormatTime(now), name, g, w)
			}
		}
		current = got
	}
	if refits < 5 {
		t.Fatalf("only %d refits exercised", refits)
	}
	if totalAdded <= r.MaxOnline {
		t.Fatal("scenario never filled the online window; eviction path untested")
	}
	if r.gramOff || r.gram == nil {
		t.Fatal("incremental gram fell back to the batch path")
	}
}

// TestRecalibratorPlanChangeFallsBack refits under a different chip-share
// plan than Ingest accumulated; the recalibrator must detect the mismatch
// and produce the batch-path result exactly.
func TestRecalibratorPlanChangeFallsBack(t *testing.T) {
	ms, samples, offline := buildRecalibScenario(t)
	withChip := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: true}
	meter := &fakeMeter{samples: samples, interval: 10 * sim.Millisecond, idle: 30}
	r := NewRecalibrator(meter, model.ScopeMachine, offline)
	r.MaxDelay = 100 * sim.Millisecond
	if r.Ingest(5*sim.Second, ms, withChip) == 0 {
		t.Fatal("no samples ingested")
	}
	// The gram was accumulated with the chip column; refit without it.
	noChip := model.Coefficients{Core: 8, Ins: 1, IncludesChipShare: false}
	got, err := r.Refit(noChip)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.Fit(append(append([]model.CalSample(nil), offline...), r.online...), model.FitOptions{
		Scope: model.ScopeMachine, IncludeChipShare: false, Base: noChip,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan-mismatch refit %+v differs from batch %+v", got, want)
	}
}

// TestModeledPowerCacheMatchesBatch hammers the incremental modeled-power
// cache with extensions, late back-writes, and coefficient changes; every
// call must return a series bit-identical to a from-scratch
// ms.ModeledPower.
func TestModeledPowerCacheMatchesBatch(t *testing.T) {
	ms := model.NewMetricSeries(sim.Millisecond)
	r := &Recalibrator{}
	c1 := model.Coefficients{Core: 8, Ins: 1.5, Mem: 320}
	c2 := model.Coefficients{Core: 7, Ins: 2, Mem: 100, IncludesChipShare: true}
	rng := sim.NewRand(11)

	write := func(b sim.Time) {
		m := model.Metrics{Core: rng.Float64() * 3, Ins: rng.Float64(), Mem: rng.Float64() * 0.05}
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, m)
	}
	// A second consumer registered before the
	// recalibrator's first call keeps its own mark on the same writes.
	other := ms.NewCursor()
	check := func(step string, c model.Coefficients) {
		t.Helper()
		got := r.modeledPower(ms, c)
		other.Clear()
		want := ms.ModeledPower(c, ms.Len())
		if len(got) != len(want) {
			t.Fatalf("%s: cache has %d buckets, batch %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: bucket %d = %v, batch %v — must be bit-identical", step, i, got[i], want[i])
			}
		}
	}

	for b := sim.Time(0); b < 100; b++ {
		write(b)
	}
	check("initial", c1)
	// Pure extension.
	for b := sim.Time(100); b < 220; b++ {
		write(b)
	}
	check("extension", c1)
	// Late back-write into an already-cached bucket (device I/O completions
	// and stragglers do this) plus more extension.
	ms.AddSpread(50*sim.Millisecond, 52*sim.Millisecond, model.Metrics{Disk: 0.8})
	for b := sim.Time(220); b < 240; b++ {
		write(b)
	}
	check("back-write", c1)
	// No changes at all: cache must simply persist.
	check("idle", c1)
	// An all-zero period writes nothing: neither Len nor either mark moves.
	n := ms.Len()
	ms.AddSpread(10*sim.Millisecond, 300*sim.Millisecond, model.Metrics{})
	if ms.Len() != n || r.mpCursor.DirtyLow() < n || other.DirtyLow() < n {
		t.Fatalf("all-zero AddSpread: len %d→%d, marks %d/%d, want unchanged and clean",
			n, ms.Len(), r.mpCursor.DirtyLow(), other.DirtyLow())
	}
	check("all-zero", c1)
	// A back-write lowers both marks to the first bucket it touches.
	ms.AddSpread(30*sim.Millisecond, 31*sim.Millisecond, model.Metrics{Net: 0.3})
	if r.mpCursor.DirtyLow() != 30 || other.DirtyLow() != 30 {
		t.Fatalf("back-write marks = %d/%d, want 30/30", r.mpCursor.DirtyLow(), other.DirtyLow())
	}
	check("second back-write", c1)
	// Coefficient change invalidates everything.
	check("coeff-change", c2)
	// And back again.
	check("coeff-revert", c1)
}
