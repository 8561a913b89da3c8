// Package experiments implements every table and figure of the paper's
// evaluation (§4) as a reproducible function over the simulated testbed.
// Each experiment returns a structured result that cmd/pcbench renders in
// the paper's format and bench_test.go exercises as a benchmark.
package experiments

import (
	"fmt"
	"os"
	"sync"

	"powercontainers/internal/audit"
	"powercontainers/internal/calib"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// AuditCollector gathers the invariant auditors of one run. Each parallel
// experiment run owns its own collector, so concurrent runs never
// interleave violation lists; the process-default collector (PC_AUDIT /
// EnableAudit) backs the compatibility API and machines assembled without
// an explicit Assembly.
type AuditCollector struct {
	mu       sync.Mutex
	enabled  bool
	auditors []*audit.Auditor
}

// NewAuditCollector returns an empty collector; enabled selects whether
// machines assembled against it get an auditor attached.
func NewAuditCollector(enabled bool) *AuditCollector {
	return &AuditCollector{enabled: enabled}
}

// Enabled reports whether the collector attaches auditors.
func (c *AuditCollector) Enabled() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// Violations returns every violation collected by this run's auditors.
func (c *AuditCollector) Violations() []audit.Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []audit.Violation
	for _, a := range c.auditors {
		out = append(out, a.Violations()...)
	}
	return out
}

// newAuditor registers a fresh auditor when the collector is enabled.
func (c *AuditCollector) newAuditor(label string) *audit.Auditor {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return nil
	}
	a := audit.New(label)
	c.auditors = append(c.auditors, a)
	return a
}

// defaultAudit is the process-default collector, the PC_AUDIT/EnableAudit
// compatibility path. Auditing is off by default (zero overhead beyond
// nil checks); tests enable it with EnableAudit, and PC_AUDIT=1 in the
// environment turns it on for a whole test run.
var defaultAudit struct {
	sync.Mutex
	c *AuditCollector
}

func init() { initDefaultAudit() }

// initDefaultAudit (re)reads PC_AUDIT into a fresh default collector.
func initDefaultAudit() {
	enabled := false
	switch os.Getenv("PC_AUDIT") {
	case "", "0", "false", "off":
		// disabled
	default:
		enabled = true
	}
	setDefaultAudit(NewAuditCollector(enabled))
}

func setDefaultAudit(c *AuditCollector) {
	defaultAudit.Lock()
	defer defaultAudit.Unlock()
	defaultAudit.c = c
}

// DefaultAudit returns the process-default audit collector.
func DefaultAudit() *AuditCollector {
	defaultAudit.Lock()
	defer defaultAudit.Unlock()
	return defaultAudit.c
}

// EnableAudit turns on invariant auditing for machines assembled from now
// on (without an explicit per-run collector) and clears previously
// collected auditors.
func EnableAudit() { setDefaultAudit(NewAuditCollector(true)) }

// DisableAudit turns auditing back off and clears collected auditors.
func DisableAudit() { setDefaultAudit(NewAuditCollector(false)) }

// AuditViolations returns every violation collected since auditing was
// enabled, across all machines audited through the default collector.
func AuditViolations() []audit.Violation { return DefaultAudit().Violations() }

// Assembly is per-run machine-assembly configuration, threaded through
// every machine a run builds so parallel runs stay isolated.
type Assembly struct {
	// Audit receives the run's machine auditors; nil falls back to the
	// process-default collector (PC_AUDIT / EnableAudit).
	Audit *AuditCollector
}

// collector resolves the run's audit collector.
func (as Assembly) collector() *AuditCollector {
	if as.Audit != nil {
		return as.Audit
	}
	return DefaultAudit()
}

// Exec configures one experiment run's execution: the worker-pool bound
// for the run's job plan and the per-run machine assembly.
type Exec struct {
	// Jobs bounds how many of the run's jobs execute concurrently
	// (0 = runner.DefaultJobs()). Results are byte-identical at any
	// value; Jobs trades only wall-clock for cores.
	Jobs int
	// Assembly threads the per-run audit configuration into every
	// machine the run assembles.
	Assembly
}

// NewRunExec returns the Exec for one experiment run: the given worker
// bound and a fresh audit collector inheriting the process default's
// enablement, so parallel runs collect violations separately.
func NewRunExec(jobs int) Exec {
	return Exec{
		Jobs:     jobs,
		Assembly: Assembly{Audit: NewAuditCollector(DefaultAudit().Enabled())},
	}
}

// calibCache memoizes offline calibration per machine: it is a controlled
// one-time procedure in the paper too ("performed once for each target
// machine configuration"). Each machine gets its own once-guarded entry,
// so under the parallel runner distinct machines calibrate concurrently
// while duplicate work is still avoided.
var calibCache struct {
	sync.Mutex
	m map[string]*calibEntry
}

type calibEntry struct {
	once sync.Once
	res  *calib.Result
	err  error
}

// CalibrationFor returns the (cached) offline calibration of a machine.
func CalibrationFor(spec cpu.MachineSpec) (*calib.Result, error) {
	calibCache.Lock()
	if calibCache.m == nil {
		calibCache.m = make(map[string]*calibEntry)
	}
	e := calibCache.m[spec.Name]
	if e == nil {
		e = &calibEntry{}
		calibCache.m[spec.Name] = e
	}
	calibCache.Unlock()
	e.once.Do(func() {
		e.res, e.err = calib.Calibrate(spec, calib.DefaultConfig())
	})
	return e.res, e.err
}

// Machine is a fully assembled machine under test: kernel, facility, and
// meters, with the offline-calibrated model installed.
type Machine struct {
	Eng     *sim.Engine
	K       *kernel.Kernel
	Fac     *core.Facility
	Wattsup *power.WattsupMeter
	Chip    *power.ChipMeter
	Calib   *calib.Result
	Rng     *sim.Rand
	// Audit is the machine's invariant auditor when auditing is enabled
	// (EnableAudit or PC_AUDIT=1), nil otherwise.
	Audit *audit.Auditor
}

// FinalizeAudit runs the machine's end-of-run audit checks, returning
// their violations as an error. It is a no-op without an attached auditor.
func (m *Machine) FinalizeAudit() error {
	if m.Audit == nil {
		return nil
	}
	return m.Audit.FinalizeMachine()
}

// NewMachine assembles a machine with the given attribution approach
// against the process-default audit collector.
func NewMachine(spec cpu.MachineSpec, approach core.Approach, seed uint64) (*Machine, error) {
	return Assembly{}.NewMachine(spec, approach, seed)
}

// NewMachine assembles a machine on its own engine with the given
// attribution approach. ApproachRecalibrated additionally wires online
// recalibration against the machine's best meter (the on-chip meter on
// SandyBridge, the Wattsup elsewhere).
func (as Assembly) NewMachine(spec cpu.MachineSpec, approach core.Approach, seed uint64) (*Machine, error) {
	cal, err := CalibrationFor(spec)
	if err != nil {
		return nil, err
	}
	profile, err := power.Profiles(spec)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	k, err := kernel.New(spec.Name, spec, profile, eng, nil)
	if err != nil {
		return nil, err
	}
	coeff := cal.Eq2
	if approach == core.ApproachCoreOnly {
		coeff = cal.Eq1
	}
	facApproach := approach
	if approach == core.ApproachRecalibrated {
		facApproach = core.ApproachChipShare // recalibration wiring flips it below
	}
	fac := core.Attach(k, coeff, core.Config{Approach: facApproach})
	m := &Machine{
		Eng:     eng,
		K:       k,
		Fac:     fac,
		Wattsup: power.NewWattsupMeter(k.Rec, seed*7919+1),
		Chip:    power.NewChipMeter(k.Rec, seed*7919+2),
		Calib:   cal,
		Rng:     sim.NewRand(seed),
	}
	if approach == core.ApproachRecalibrated {
		if calib.HasChipMeter(spec) {
			fac.EnableRecalibration(m.Chip, model.ScopePackage, cal.Samples, 0)
		} else {
			fac.EnableRecalibration(m.Wattsup, model.ScopeMachine, cal.Samples, 0)
		}
	}
	if a := as.collector().newAuditor(fmt.Sprintf("%s/%s", spec.Name, approach)); a != nil {
		a.AttachMachine(fac)
		m.Audit = a
	}
	return m, nil
}

// LoadLevel selects the paper's two operating points.
type LoadLevel int

const (
	// PeakLoad fully utilizes the server (closed loop, zero think time).
	PeakLoad LoadLevel = iota
	// HalfLoad drives ≈50% utilization (open-loop Poisson arrivals).
	HalfLoad
)

func (l LoadLevel) String() string {
	if l == PeakLoad {
		return "peak load"
	}
	return "half load"
}

// RunSpec configures a workload run.
type RunSpec struct {
	Workload workload.Workload
	Load     LoadLevel
	// Rate overrides the arrival rate (requests/sec) when positive;
	// otherwise it is derived from the load level.
	Rate float64
	// Warmup and Window bound the measurement window.
	Warmup, Window sim.Time
}

// RunResult is one workload run's measurements.
type RunResult struct {
	Spec cpu.MachineSpec
	Gen  *server.LoadGen
	// T0, T1 bound the measurement window.
	T0, T1 sim.Time
	// MeasuredActiveW is the Wattsup machine-active power over the
	// window (reading minus idle).
	MeasuredActiveW float64
	// AccountedW is the facility's aggregate profiled request power:
	// total container energy accrued in the window divided by its
	// length (§4.2's validation quantity).
	AccountedW float64
	// BackgroundW is the background container's share of AccountedW.
	BackgroundW float64
	// Machine retains the assembled machine for further inspection.
	Machine *Machine
}

// ValidationError is the paper's Figure 8 metric:
// |aggregate profiled request power − measured active| / measured.
func (r *RunResult) ValidationError() float64 {
	if r.MeasuredActiveW <= 0 {
		return 0
	}
	d := r.AccountedW - r.MeasuredActiveW
	if d < 0 {
		d = -d
	}
	return d / r.MeasuredActiveW
}

// defaultWarmup and defaultWindow are aligned to Wattsup one-second
// windows so window-mean measurement is exact.
const (
	defaultWarmup = 2 * sim.Second
	defaultWindow = 8 * sim.Second
)

// PeakClients returns the closed-loop client count that saturates a
// deployment on a machine.
func PeakClients(spec cpu.MachineSpec) int { return 3 * spec.Cores() }

// PeakRate estimates a deployment's saturation throughput (req/s).
func PeakRate(spec cpu.MachineSpec, dep *server.Deployment) float64 {
	return float64(spec.Cores()) / dep.MeanServiceSec
}

// Run executes a workload on a fresh machine and measures the window,
// against the process-default audit collector.
func Run(spec cpu.MachineSpec, approach core.Approach, rs RunSpec, seed uint64) (*RunResult, error) {
	return Assembly{}.Run(spec, approach, rs, seed)
}

// Run executes a workload on a fresh machine and measures the window.
func (as Assembly) Run(spec cpu.MachineSpec, approach core.Approach, rs RunSpec, seed uint64) (*RunResult, error) {
	m, err := as.NewMachine(spec, approach, seed)
	if err != nil {
		return nil, err
	}
	return RunOn(m, rs)
}

// RunOn executes a workload run on an assembled machine.
func RunOn(m *Machine, rs RunSpec) (*RunResult, error) {
	if rs.Warmup <= 0 {
		rs.Warmup = defaultWarmup
		// Recalibration against a slow wall meter (1 s windows,
		// 1.2 s delivery lag) needs tens of seconds of samples before
		// the delay estimate and the first refits settle.
		if r := m.Fac.Recalibrator(); r != nil && r.Meter.Interval() >= sim.Second {
			rs.Warmup = 16 * sim.Second
		}
	}
	if rs.Window <= 0 {
		rs.Window = defaultWindow
	}
	dep := rs.Workload.Deploy(m.K, m.Rng.Fork(11))
	gen := server.NewLoadGen(m.K, m.Fac, dep)

	t0 := rs.Warmup
	t1 := rs.Warmup + rs.Window
	switch {
	case rs.Rate > 0:
		gen.RunOpenLoop(rs.Rate, t1, m.Rng.Fork(13))
	case rs.Load == PeakLoad:
		gen.RunClosedLoop(PeakClients(m.K.Spec), t1)
	default:
		gen.RunOpenLoop(0.5*PeakRate(m.K.Spec, dep), t1, m.Rng.Fork(13))
	}

	var accounted0, background0 float64
	m.Eng.At(t0, func() {
		accounted0 = m.Fac.TotalAccountedEnergyJ()
		background0 = m.Fac.Background.EnergyJ()
	})
	var accounted1, background1 float64
	m.Eng.At(t1, func() {
		accounted1 = m.Fac.TotalAccountedEnergyJ()
		background1 = m.Fac.Background.EnergyJ()
	})
	// Run past t1 so delayed meter samples are delivered.
	m.Eng.RunUntil(t1 + 3*sim.Second)

	if err := m.FinalizeAudit(); err != nil {
		return nil, err
	}

	windowSec := float64(t1-t0) / float64(sim.Second)
	measured, err := wattsupWindowMean(m.Wattsup, m.Eng.Now(), t0, t1)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Spec:            m.K.Spec,
		Gen:             gen,
		T0:              t0,
		T1:              t1,
		MeasuredActiveW: measured,
		AccountedW:      (accounted1 - accounted0) / windowSec,
		BackgroundW:     (background1 - background0) / windowSec,
		Machine:         m,
	}, nil
}

// WattsupActiveMean averages a machine's Wattsup active power over
// [t0, t1); the window must be aligned to whole seconds.
func WattsupActiveMean(m *Machine, now, t0, t1 sim.Time) (float64, error) {
	return wattsupWindowMean(m.Wattsup, now, t0, t1)
}

// wattsupWindowMean averages Wattsup active power over [t0, t1).
func wattsupWindowMean(m *power.WattsupMeter, now, t0, t1 sim.Time) (float64, error) {
	var sum float64
	n := 0
	for _, s := range m.Read(now) {
		if s.Start >= t0 && s.Start+m.Interval() <= t1 {
			sum += s.Watts - m.IdleW()
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("experiments: no wattsup samples in [%s,%s)", sim.FormatTime(t0), sim.FormatTime(t1))
	}
	return sum / float64(n), nil
}
