package power

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// RecorderInterval is the ground-truth energy bucketing granularity. The
// SandyBridge on-chip meter accumulates energy once per millisecond, so the
// recorder matches that resolution.
const RecorderInterval = sim.Millisecond

// AuditSink observes every ground-truth energy record for invariant
// checking (internal/audit): recorded energy must be non-negative and
// time-ordered, and the streamed total must equal the series content. A
// nil sink — the default — costs only a nil check.
type AuditSink interface {
	// OnRecord fires for each energy record: kind is one of "core",
	// "observer", "maint", "device"; [t0, t1] the interval (t0 == t1 for
	// point records) and joules the energy added.
	OnRecord(kind string, t0, t1 sim.Time, joules float64)
}

// Recorder integrates a machine's actual energy use on a 1 ms grid. The
// kernel reports every execution segment and device transfer; the recorder
// additionally integrates per-chip maintenance power from chip busy/idle
// transitions. Meters read the recorder; the facility never does.
type Recorder struct {
	spec    cpu.MachineSpec
	profile TrueProfile

	// Audit observes every record; nil disables.
	Audit AuditSink

	pkgActive *stats.Series // joules per bucket: cores + chip maintenance
	device    *stats.Series // joules per bucket: disk + net

	chipBusy []int // currently busy core count per chip
	// activeChips counts chips with at least one busy core, maintained
	// incrementally at busy transitions so FlushUntil — called on every
	// context switch — does not rescan chipBusy.
	activeChips int
	maintUpTo   sim.Time // maintenance integrated up to this instant
}

// NewRecorder returns a recorder for the given machine.
func NewRecorder(spec cpu.MachineSpec, profile TrueProfile) *Recorder {
	return &Recorder{
		spec:      spec,
		profile:   profile,
		pkgActive: stats.NewSeries(RecorderInterval),
		device:    stats.NewSeries(RecorderInterval),
		chipBusy:  make([]int, spec.Chips),
	}
}

// Spec returns the machine spec the recorder belongs to.
func (r *Recorder) Spec() cpu.MachineSpec { return r.spec }

// Profile returns the hidden ground-truth profile (experiments use it to
// validate; the facility must not).
func (r *Recorder) Profile() TrueProfile { return r.profile }

// AddCoreSegment integrates the actual energy of one core running a task
// over [t0, t1) with the given on-machine activity and duty fraction.
//
//pclint:hotpath
func (r *Recorder) AddCoreSegment(t0, t1 sim.Time, act cpu.Activity, duty float64) {
	if t1 <= t0 {
		return
	}
	watts := r.profile.CorePowerW(act, duty)
	joules := watts * float64(t1-t0) / float64(sim.Second)
	if r.Audit != nil {
		r.Audit.OnRecord("core", t0, t1, joules)
	}
	r.pkgActive.AddSpread(t0, t1, joules)
}

// AddObserverEnergy charges the energy of facility maintenance operations
// themselves (the observer effect) at time t. The paper estimates ~10 µJ
// per maintenance operation on SandyBridge (§3.5).
//
//pclint:hotpath
func (r *Recorder) AddObserverEnergy(t sim.Time, joules float64) {
	if joules <= 0 {
		return
	}
	if r.Audit != nil {
		r.Audit.OnRecord("observer", t, t, joules)
	}
	r.pkgActive.Add(t, joules)
}

// SetChipBusyCores integrates maintenance power up to now and records the
// new busy-core count of a chip. Maintenance power is drawn at the full
// ChipMaintW whenever at least one core of the chip is running — the
// non-proportional component Figure 1 exposes.
//
//pclint:hotpath
func (r *Recorder) SetChipBusyCores(chip int, busy int, now sim.Time) {
	if chip < 0 || chip >= len(r.chipBusy) {
		panic(fmt.Sprintf("power: chip %d out of range", chip)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	if busy < 0 || busy > r.spec.CoresPerChip {
		panic(fmt.Sprintf("power: chip %d busy count %d out of range", chip, busy)) //pclint:allow hotalloc panic-path formatting on an invariant violation
	}
	// Flush with the old busy set first: the transition takes effect at
	// now, so energy up to now is drawn at the previous active count.
	r.FlushUntil(now)
	if (busy > 0) != (r.chipBusy[chip] > 0) {
		if busy > 0 {
			r.activeChips++
		} else {
			r.activeChips--
		}
	}
	r.chipBusy[chip] = busy
}

// FlushUntil integrates chip maintenance energy up to now. The kernel calls
// it before any read of the series and at every busy-transition; the
// incrementally maintained active-chip count makes it O(1) outside the
// series write itself.
//
//pclint:hotpath
func (r *Recorder) FlushUntil(now sim.Time) {
	if now <= r.maintUpTo {
		return
	}
	if r.activeChips > 0 {
		watts := float64(r.activeChips) * r.profile.ChipMaintW
		joules := watts * float64(now-r.maintUpTo) / float64(sim.Second)
		if r.Audit != nil {
			r.Audit.OnRecord("maint", r.maintUpTo, now, joules)
		}
		r.pkgActive.AddSpread(r.maintUpTo, now, joules)
	}
	r.maintUpTo = now
}

// AddDeviceSegment integrates disk/net device energy over [t0, t1) at the
// given utilization of the named device power budget.
func (r *Recorder) AddDeviceSegment(t0, t1 sim.Time, watts float64) {
	if t1 <= t0 || watts <= 0 {
		return
	}
	joules := watts * float64(t1-t0) / float64(sim.Second)
	if r.Audit != nil {
		r.Audit.OnRecord("device", t0, t1, joules)
	}
	r.device.AddSpread(t0, t1, joules)
}

// PkgActiveSeries returns the package active-energy series (joules per 1 ms
// bucket). Callers must FlushUntil first for up-to-date maintenance energy.
func (r *Recorder) PkgActiveSeries() *stats.Series { return r.pkgActive }

// DeviceSeries returns the device energy series (joules per 1 ms bucket).
func (r *Recorder) DeviceSeries() *stats.Series { return r.device }

// MachineActivePowerW returns the mean whole-machine active power (package
// active + devices, excluding idle baselines) over [t0, t1).
func (r *Recorder) MachineActivePowerW(t0, t1 sim.Time) float64 {
	r.FlushUntil(t1)
	lo := int(t0 / RecorderInterval)
	hi := int(t1 / RecorderInterval)
	if hi <= lo {
		return 0
	}
	var joules float64
	for b := lo; b < hi; b++ {
		joules += r.pkgActive.Bucket(b) + r.device.Bucket(b)
	}
	return joules / (float64(hi-lo) * float64(RecorderInterval) / float64(sim.Second))
}

// PkgActivePowerW returns mean package active power over [t0, t1).
func (r *Recorder) PkgActivePowerW(t0, t1 sim.Time) float64 {
	r.FlushUntil(t1)
	lo := int(t0 / RecorderInterval)
	hi := int(t1 / RecorderInterval)
	if hi <= lo {
		return 0
	}
	var joules float64
	for b := lo; b < hi; b++ {
		joules += r.pkgActive.Bucket(b)
	}
	return joules / (float64(hi-lo) * float64(RecorderInterval) / float64(sim.Second))
}
