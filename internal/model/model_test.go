package model

import (
	"math"
	"testing"
	"testing/quick"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
)

func TestMetricsVectorRoundTrip(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float32) bool {
		m := Metrics{
			Core: float64(a), Ins: float64(b), Float: float64(c), Cache: float64(d),
			Mem: float64(e), Chip: float64(g), Disk: float64(h), Net: float64(i),
		}
		back, err := MetricsFromVector(m.Vector())
		return err == nil && back == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := MetricsFromVector([]float64{1, 2}); err == nil {
		t.Fatal("short vector accepted")
	}
}

func TestMetricsArithmetic(t *testing.T) {
	a := Metrics{Core: 1, Ins: 2, Mem: 0.5}
	b := Metrics{Core: 3, Cache: 1}
	sum := a.Add(b)
	if sum.Core != 4 || sum.Ins != 2 || sum.Cache != 1 || sum.Mem != 0.5 {
		t.Fatalf("Add = %+v", sum)
	}
	sc := a.Scale(2)
	if sc.Core != 2 || sc.Ins != 4 || sc.Mem != 1 {
		t.Fatalf("Scale = %+v", sc)
	}
	mx := a.Max(b)
	if mx.Core != 3 || mx.Ins != 2 || mx.Cache != 1 {
		t.Fatalf("Max = %+v", mx)
	}
}

func TestEstimateSplitsScopes(t *testing.T) {
	c := Coefficients{Core: 10, Ins: 2, Cache: 100, Mem: 200, Chip: 5, Disk: 3, Net: 7}
	m := Metrics{Core: 1, Ins: 1.5, Cache: 0.01, Mem: 0.002, Chip: 0.5, Disk: 0.5, Net: 0.25}
	cpuPart := 10 + 3.0 + 1 + 0.4 + 2.5
	if got := c.EstimateCPU(m); math.Abs(got-cpuPart) > 1e-12 {
		t.Fatalf("EstimateCPU = %g, want %g", got, cpuPart)
	}
	if got := c.Estimate(m); math.Abs(got-(cpuPart+1.5+1.75)) > 1e-12 {
		t.Fatalf("Estimate = %g", got)
	}
}

func TestMetricSeriesTimeWeighting(t *testing.T) {
	ms := NewMetricSeries(sim.Millisecond)
	// A fully utilized period covering half of bucket 0.
	ms.AddSpread(0, sim.Millisecond/2, Metrics{Core: 1, Ins: 2})
	got := ms.At(0)
	if math.Abs(got.Core-0.5) > 1e-9 || math.Abs(got.Ins-1.0) > 1e-9 {
		t.Fatalf("bucket 0 = %+v, want Core 0.5 Ins 1.0", got)
	}
	// Sum across cores: a second core's full-bucket period adds 1.0.
	ms.AddSpread(0, sim.Millisecond, Metrics{Core: 1})
	if got := ms.At(0); math.Abs(got.Core-1.5) > 1e-9 {
		t.Fatalf("summed Core = %g, want 1.5", got.Core)
	}
}

func TestMetricSeriesWindowMeanAndModeledPower(t *testing.T) {
	ms := NewMetricSeries(sim.Millisecond)
	for b := sim.Time(0); b < 10; b++ {
		ms.AddSpread(b*sim.Millisecond, (b+1)*sim.Millisecond, Metrics{Core: float64(b % 2)})
	}
	mean := ms.WindowMean(0, 10)
	if math.Abs(mean.Core-0.5) > 1e-9 {
		t.Fatalf("window mean = %g, want 0.5", mean.Core)
	}
	c := Coefficients{Core: 10}
	pw := ms.ModeledPower(c, 10)
	if len(pw) != 10 || pw[1] != 10 || pw[0] != 0 {
		t.Fatalf("modeled power = %v", pw)
	}
}

// fixedIdle implements IdleChecker with a fixed busy set.
type fixedIdle map[int]bool // true = idle

func (f fixedIdle) CoreIdle(core int) bool { return f[core] }

func TestChipShareEquation(t *testing.T) {
	spec := cpu.MachineSpec{Name: "q", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8}
	cores := make([]*cpu.Core, 4)
	for i := range cores {
		cores[i] = cpu.NewCore(i, spec)
	}
	// All siblings idle: full chip share.
	idle := fixedIdle{1: true, 2: true, 3: true}
	if got := ChipShare(spec, cores, 0, 1.0, idle); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("solo share = %g, want 1", got)
	}
	// Three busy siblings at full utilization: share = 1/(1+3).
	for _, c := range cores[1:] {
		c.PublishSample(0, 1.0)
	}
	busy := fixedIdle{}
	if got := ChipShare(spec, cores, 0, 1.0, busy); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("quarter share = %g, want 0.25", got)
	}
	// Stale sample from an idle sibling must be ignored via the idle
	// check even though LastUtil says busy.
	idleOne := fixedIdle{3: true}
	want := 1.0 / (1 + 2)
	if got := ChipShare(spec, cores, 0, 1.0, idleOne); math.Abs(got-want) > 1e-12 {
		t.Fatalf("share with idle sibling = %g, want %g", got, want)
	}
	// Zero utilization → zero share.
	if got := ChipShare(spec, cores, 0, 0, busy); got != 0 {
		t.Fatalf("idle self share = %g", got)
	}
	// Out-of-range published samples clamp.
	cores[1].PublishSample(0, 42)
	cores[2].PublishSample(0, -3)
	got := ChipShare(spec, cores, 0, 1.0, fixedIdle{3: true})
	if got < 0.4 || got > 0.6 { // 1/(1+1+0)
		t.Fatalf("clamped share = %g, want 0.5", got)
	}
}

func TestChipShareOnlySameChip(t *testing.T) {
	spec := cpu.MachineSpec{Name: "d", Chips: 2, CoresPerChip: 2, FreqHz: 1e9, DutyLevels: 8}
	cores := make([]*cpu.Core, 4)
	for i := range cores {
		cores[i] = cpu.NewCore(i, spec)
		cores[i].PublishSample(0, 1.0)
	}
	// Core 0's share depends only on core 1, not on chip 1's cores.
	got := ChipShare(spec, cores, 0, 1.0, fixedIdle{})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("cross-chip leakage: share = %g, want 0.5", got)
	}
}

func TestOracleChipShare(t *testing.T) {
	spec := cpu.MachineSpec{Name: "q", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8}
	if got := OracleChipShare(spec, 0, 1.0, fixedIdle{1: true, 2: true, 3: true}); got != 1.0 {
		t.Fatalf("oracle solo = %g", got)
	}
	if got := OracleChipShare(spec, 0, 1.0, fixedIdle{}); got != 0.25 {
		t.Fatalf("oracle full = %g", got)
	}
}

func TestFitRecoversSyntheticModel(t *testing.T) {
	truth := Coefficients{Core: 9, Ins: 1.5, Float: 0.8, Cache: 120, Mem: 300, Chip: 5, Disk: 2, Net: 6}
	rng := sim.NewRand(77)
	var samples []CalSample
	for i := 0; i < 200; i++ {
		m := Metrics{
			Core: rng.Float64() * 4, Ins: rng.Float64() * 6, Float: rng.Float64(),
			Cache: rng.Float64() * 0.08, Mem: rng.Float64() * 0.02,
			Chip: rng.Float64(), Disk: rng.Float64(), Net: rng.Float64(),
		}
		samples = append(samples, CalSample{
			M:              m,
			MachineActiveW: truth.Estimate(m) + rng.NormFloat64(0.1),
			PkgActiveW:     truth.EstimateCPU(m) + rng.NormFloat64(0.1),
		})
	}
	got, err := Fit(samples, FitOptions{Scope: ScopeMachine, IncludeChipShare: true, IdleW: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got.IdleW != 30 || !got.IncludesChipShare {
		t.Fatal("metadata not carried")
	}
	check := func(name string, gotV, wantV, tol float64) {
		if math.Abs(gotV-wantV) > tol {
			t.Errorf("%s = %g, want %g", name, gotV, wantV)
		}
	}
	check("core", got.Core, truth.Core, 0.1)
	check("ins", got.Ins, truth.Ins, 0.1)
	check("cache", got.Cache, truth.Cache, 5)
	check("mem", got.Mem, truth.Mem, 15)
	check("chip", got.Chip, truth.Chip, 0.3)
	check("disk", got.Disk, truth.Disk, 0.2)
	check("net", got.Net, truth.Net, 0.2)

	// Package-scope fit keeps device coefficients from the base.
	pkgGot, err := Fit(samples, FitOptions{
		Scope: ScopePackage, IncludeChipShare: true, Base: got,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgGot.Disk != got.Disk || pkgGot.Net != got.Net {
		t.Fatal("package fit clobbered device terms")
	}
	check("pkg core", pkgGot.Core, truth.Core, 0.1)

	// Eq. 1 fit: chip term zeroed.
	eq1, err := Fit(samples, FitOptions{Scope: ScopeMachine, IncludeChipShare: false})
	if err != nil {
		t.Fatal(err)
	}
	if eq1.Chip != 0 || eq1.IncludesChipShare {
		t.Fatal("Eq1 fit has chip term")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, FitOptions{}); err == nil {
		t.Fatal("empty samples accepted")
	}
	s := []CalSample{{M: Metrics{Core: 1}, MachineActiveW: 10, PkgActiveW: math.NaN()}}
	if _, err := Fit(s, FitOptions{Scope: ScopePackage}); err == nil {
		t.Fatal("NaN package target accepted")
	}
	if _, err := Fit(s, FitOptions{Scope: FitScope(99)}); err == nil {
		t.Fatal("bad scope accepted")
	}
}

func TestFitErrorMetric(t *testing.T) {
	c := Coefficients{Core: 10}
	samples := []CalSample{
		{M: Metrics{Core: 1}, MachineActiveW: 10},
		{M: Metrics{Core: 2}, MachineActiveW: 25}, // model says 20 → 20% err
	}
	got := FitError(c, samples, ScopeMachine)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("fit error = %g, want 0.1", got)
	}
	if FitError(c, nil, ScopeMachine) != 0 {
		t.Fatal("empty fit error not zero")
	}
}

// TestMetricCursorIndependentOfLegacyMark checks that consumers' marks are
// independent. The recalibrator's mark, once a separate single-owner
// DirtyLow/ClearDirty pair, is now one more cursor: c1 plays that role and
// c2 a second consumer's.
func TestMetricCursorIndependentOfLegacyMark(t *testing.T) {
	ms := NewMetricSeries(sim.Millisecond)
	ms.AddSpread(0, 6*sim.Millisecond, Metrics{Core: 1, Ins: 2})
	c1 := ms.NewCursor()
	if c1.DirtyLow() != 0 {
		t.Fatalf("fresh cursor DirtyLow = %d, want 0 (conservatively all dirty)", c1.DirtyLow())
	}
	c1.Clear()
	c2 := ms.NewCursor()
	ms.AddSpread(3*sim.Millisecond, 4*sim.Millisecond, Metrics{Cache: 1})
	if c1.DirtyLow() != 3 || c2.DirtyLow() != 0 {
		t.Fatalf("after write: c1=%d c2=%d, want 3/0", c1.DirtyLow(), c2.DirtyLow())
	}
	c1.Clear()
	if c1.DirtyLow() < ms.Len() {
		t.Fatalf("cleared cursor DirtyLow = %d, want ≥ Len %d", c1.DirtyLow(), ms.Len())
	}
	if c2.DirtyLow() != 0 {
		t.Fatal("clearing c1 touched c2")
	}
	c2.Clear()
	// A write lowers every cursor to the first bucket it touches, even one
	// whose components differ from earlier writes, and one that reaches
	// past Len.
	ms.AddSpread(sim.Millisecond+sim.Millisecond/2, 8*sim.Millisecond, Metrics{Disk: 0.5})
	if c1.DirtyLow() != 1 || c2.DirtyLow() != 1 || ms.Len() != 8 {
		t.Fatalf("after back-write: c1=%d c2=%d len=%d, want 1/1/8", c1.DirtyLow(), c2.DirtyLow(), ms.Len())
	}
	// An all-zero period writes nothing: no growth, no mark.
	c1.Clear()
	ms.AddSpread(0, 20*sim.Millisecond, Metrics{})
	if ms.Len() != 8 || c1.DirtyLow() < ms.Len() || c2.DirtyLow() != 1 {
		t.Fatalf("after all-zero write: len=%d c1=%d c2=%d, want 8/clean/1", ms.Len(), c1.DirtyLow(), c2.DirtyLow())
	}
}
