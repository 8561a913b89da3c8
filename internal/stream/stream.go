// Package stream turns the repo's run-to-completion pipeline (meters →
// align → recalibrate → containers) into a long-running streaming
// attribution engine: a pull-based consumer that drives the simulation in
// fixed ticks and, at each tick boundary, incrementally consumes meter
// samples (power.ReadFresh cursors) and per-container attribution deltas
// (core.Facility creation-order scans) into bounded-memory ring buffers
// (stats.Ring), evaluates the modeled power of each tick's metric buckets
// on demand, and emits a per-container power/energy record stream.
//
// Determinism contract: the engine is a pure consumer — it never schedules
// simulation events, so driving the engine tick by tick processes the
// exact event sequence a single batch RunUntil would. The one side effect
// of consumption is that reading a meter flushes the power recorder up to
// the read time, which splits the chip-maintenance energy integration at
// the pull instant. When online recalibration is enabled its 100ms
// ingest event already flushes at every multiple of
// core.DefaultRecalibrationPeriod — so a tick that is a multiple of that
// period makes the engine's pull a no-op flush and keeps the whole run,
// attribution and measurement alike, bit-identical to the batch path.
// Without recalibration the flush split perturbs only measured readings
// at rounding level (nothing feeds back into the simulation), and
// attribution remains bit-identical for any tick. TestStreamMatchesBatch
// pins both claims.
package stream

import (
	"powercontainers/internal/align"
	"powercontainers/internal/core"
	"powercontainers/internal/linalg"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/sim"
	"powercontainers/internal/stats"
)

// DefaultTick is the default streaming period: the recalibration ingest
// period, so that pulls coincide with flushes the simulation already
// performs (see the package comment's determinism contract).
const DefaultTick = core.DefaultRecalibrationPeriod

// Sources are the simulation-side taps the engine consumes. The engine
// reads them; it never mutates the simulation beyond meter-read flushes.
type Sources struct {
	Eng *sim.Engine
	Fac *core.Facility
	// Meter is the measured-power stream (nil disables the measured ring
	// and the drift refit).
	Meter power.Meter
	// Scope selects the drift refit target matching Meter (machine scope
	// for a wall meter, package scope for the on-chip meter).
	Scope model.FitScope
}

// Config bounds the engine's memory and sets its cadence. Zero values
// select the defaults.
type Config struct {
	// Tick is the streaming period (default DefaultTick). For bit-exact
	// equivalence with the batch path under online recalibration it must
	// be a multiple of core.DefaultRecalibrationPeriod.
	Tick sim.Time
	// MeterWindow caps the measured ring in meter samples (default 4096).
	MeterWindow int
	// TickWindow caps the attributed-energy ring in ticks (default 1024).
	TickWindow int
	// ModelWindow is the span, in trailing metric buckets, of the metric
	// fingerprint a checkpoint carries for replay verification
	// (default 8192).
	ModelWindow int
	// DriftWindow caps the retained aligned pairs of the windowed drift
	// refit (default 512).
	DriftWindow int
	// CheckpointEvery takes an automatic checkpoint every that many ticks
	// (0 disables; the checkpoint is retained, see LastCheckpoint).
	CheckpointEvery int
	// LedgerCheckEvery re-reconciles the streamed per-container energy
	// ledger against the facility's full accounting every that many ticks
	// (default 50; negative disables).
	LedgerCheckEvery int
	// LedgerTol is the relative tolerance of the ledger check
	// (default 1e-6).
	LedgerTol float64
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = DefaultTick
	}
	if c.MeterWindow == 0 {
		c.MeterWindow = 4096
	}
	if c.TickWindow == 0 {
		c.TickWindow = 1024
	}
	if c.ModelWindow == 0 {
		c.ModelWindow = 8192
	}
	if c.DriftWindow == 0 {
		c.DriftWindow = 512
	}
	if c.LedgerCheckEvery == 0 {
		c.LedgerCheckEvery = 50
	}
	//pclint:allow floatsafe zero is the unset sentinel; any explicit tolerance is nonzero
	if c.LedgerTol == 0 {
		c.LedgerTol = 1e-6
	}
	return c
}

// Sink receives the engine's record stream.
type Sink interface {
	OnRecord(r Record)
}

// AuditSink receives the engine's audit events; audit.Auditor implements
// it. OnStreamViolation reports live conservation-check failures.
type AuditSink interface {
	OnCheckpoint(tick int, t sim.Time, encodedBytes int)
	OnStreamViolation(check string, t sim.Time, detail string)
}

// contCursor tracks one live container's last observed cumulative stats;
// per-tick records are deltas of these.
type contCursor struct {
	c       *core.Container
	lastJ   float64
	lastCPU sim.Time
}

// driftMinPairs is the observation count below which the windowed drift
// refit withholds a solution; driftRebuildEvery bounds Remove residue by
// rebuilding the Gram from the retained window (the align.Recalibrator
// policy, but tighter: the stream contract promises the windowed refit
// stays within 1e-9 relative of a batch fit over the same pairs, and ~30
// removes of residue keep it there where 256 would not).
const (
	driftMinPairs     = 8
	driftRebuildEvery = 32
)

// Engine is the streaming attribution engine. Drive it with RunTicks or
// RunUntil; records flow to Sink, audit events to Audit. All engine state
// outside the Sources is bounded by Config.
type Engine struct {
	src Sources
	cfg Config

	// Sink receives records; nil discards them (Records still counts).
	Sink Sink
	// Audit receives checkpoint and conservation events; may be nil.
	Audit AuditSink

	tick    int // completed ticks; engine time is tick*cfg.Tick
	records int64
	cumJ    float64 // running attributed energy, summed in emission order

	meterSeen int
	measured  *stats.Ring // per delivered meter sample: active watts

	containersSeen int
	live           []*contCursor // creation order; released entries removed
	attributed     *stats.Ring   // per tick: attributed joules

	// Hierarchy cursors: last observed cumulative energy per service and
	// per tenant, indexed by registration order (Service.Index and
	// Tenant.Index). Empty on flat runs, whose streams therefore stay
	// byte-identical to pre-hierarchy builds.
	svcLast []float64
	tenLast []float64

	delay      sim.Time // drift-pair alignment delay
	delayKnown bool
	plan       model.FitPlan
	planKnown  bool
	pairs      []model.CalSample
	gram       *linalg.Gram
	evictions  int // since the last rebuild
	evTotal    int64
	drift      model.Coefficients
	driftOK    bool
	driftErr   float64

	lastCP *Checkpoint
}

// New attaches a streaming engine to the given sources. The engine
// assumes exclusive ownership of its meter-read cursor; it only reads the
// facility's metric series and registers no cursor on it.
func New(src Sources, cfg Config) *Engine {
	if src.Eng == nil || src.Fac == nil {
		panic("stream: New requires Eng and Fac sources")
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		src:        src,
		cfg:        cfg,
		attributed: stats.NewRing(cfg.Tick, cfg.TickWindow),
	}
	if src.Meter != nil {
		e.measured = stats.NewRing(src.Meter.Interval(), cfg.MeterWindow)
	}
	return e
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Tick returns the number of completed ticks.
func (e *Engine) Tick() int { return e.tick }

// Now returns the engine's time: the end of the last completed tick.
func (e *Engine) Now() sim.Time { return sim.Time(e.tick) * e.cfg.Tick }

// Records returns how many records the engine has emitted.
func (e *Engine) Records() int64 { return e.records }

// CumAttributedJ returns the streamed attribution ledger: total energy
// attributed across all containers, accumulated from per-tick deltas.
func (e *Engine) CumAttributedJ() float64 { return e.cumJ }

// DriftFit returns the windowed online refit over the retained aligned
// pairs, if enough observations have arrived. It answers "what would the
// model look like fit over recent data only" — diverging from the
// facility's coefficients signals model drift.
func (e *Engine) DriftFit() (model.Coefficients, bool) { return e.drift, e.driftOK }

// DriftWindow returns a copy of the retained aligned pairs backing the
// drift refit.
func (e *Engine) DriftWindow() []model.CalSample {
	return append([]model.CalSample(nil), e.pairs...)
}

// DriftEvictions returns how many pairs have ever been evicted from the
// drift window; zero means the incremental fit is still bit-identical to
// a batch fit over the window (no Remove residue).
func (e *Engine) DriftEvictions() int64 { return e.evTotal }

// LastCheckpoint returns the most recent automatic checkpoint (nil before
// the first CheckpointEvery boundary).
func (e *Engine) LastCheckpoint() *Checkpoint { return e.lastCP }

// Drained reports whether the simulation has no pending events: nothing
// remains but clock advancement (and meter tail delivery, which needs no
// events). Long-running drivers use it to stop early.
func (e *Engine) Drained() bool {
	_, ok := e.src.Eng.NextEventAt()
	return !ok
}

// RunTicks advances the engine by n ticks.
func (e *Engine) RunTicks(n int) {
	for i := 0; i < n; i++ {
		e.step()
	}
}

// RunUntil advances the engine through every tick boundary ≤ t. Time
// between the last boundary and t is not consumed (the engine only
// observes whole ticks).
func (e *Engine) RunUntil(t sim.Time) {
	for sim.Time(e.tick+1)*e.cfg.Tick <= t {
		e.step()
	}
}

// step advances the simulation one tick and consumes everything that
// became observable, emitting container records (creation order) followed
// by one system record.
func (e *Engine) step() {
	e.tick++
	t := sim.Time(e.tick) * e.cfg.Tick
	e.src.Eng.RunUntil(t)

	// Meter ingestion: the fresh tail since the last pull, as active watts.
	var freshSamples []power.Sample
	if e.src.Meter != nil {
		freshSamples, e.meterSeen = power.ReadFresh(e.src.Meter, t, e.meterSeen)
		idle := e.src.Meter.IdleW()
		for _, s := range freshSamples {
			e.measured.Append(s.Watts - idle)
		}
	}

	// Container scan: adopt containers born since the last tick, then
	// walk the live set in creation order diffing cumulative stats.
	fac := e.src.Fac
	for n := fac.NumContainers(); e.containersSeen < n; e.containersSeen++ {
		e.live = append(e.live, &contCursor{c: fac.ContainerAt(e.containersSeen)})
	}
	var tickJ float64
	keep := e.live[:0]
	for _, cc := range e.live {
		c := cc.c
		j := c.EnergyJ()
		delta := j - cc.lastJ
		done := c.Released && c.Refs() == 0
		tickJ += delta
		//pclint:allow floatsafe exact-zero fast path: an untouched container contributes no record
		if delta != 0 || done {
			e.cumJ += delta
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindContainer,
				ID: c.ID, Label: c.Label, Client: c.Client,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
				Done:       done,
			})
		}
		cc.lastJ = j
		cc.lastCPU = c.CPUTime
		if !done {
			keep = append(keep, cc)
		}
	}
	// Zero dropped tail cursors so released containers become collectable.
	for i := len(keep); i < len(e.live); i++ {
		e.live[i] = nil
	}
	e.live = keep
	e.attributed.Append(tickJ)

	// Hierarchy roll-up records: per-service then per-tenant deltas over
	// the same tick, mirroring the container scan. Flat runs skip this
	// entirely — no hierarchy, no records, byte-identical stream.
	if h := fac.Hierarchy(); h != nil {
		e.emitHierarchy(h, t)
	}

	// Drift refit: align fresh samples and fold them into the windowed
	// Gram, evicting beyond the window.
	e.foldDrift(freshSamples)

	e.emit(Record{
		Tick: e.tick, T: t, Kind: KindSystem,
		EnergyJ:    tickJ,
		CumEnergyJ: e.cumJ,
		//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
		AttributedW: tickJ / e.tickSeconds(),
		ModeledW:    e.modeledTickMean(),
		MeasuredW:   meanActive(freshSamples, e.src.Meter),
		Samples:     len(freshSamples),
		FitN:        len(e.pairs),
		DriftErr:    e.driftErr,
	})

	if e.cfg.LedgerCheckEvery > 0 && e.tick%e.cfg.LedgerCheckEvery == 0 {
		e.checkLedger(t)
	}
	if e.cfg.CheckpointEvery > 0 && e.tick%e.cfg.CheckpointEvery == 0 {
		e.lastCP = e.Checkpoint()
	}
}

// emitHierarchy walks the hierarchy's services and tenants in
// registration order, adopting nodes born since the last tick and
// emitting a record for every node whose cumulative energy moved. The
// cumulative values are the incremental accumulators (charged in
// simulation order) — the same view enforcement reads — so the streamed
// per-tenant ledger reconciles with the container records it aggregates.
func (e *Engine) emitHierarchy(h *core.Hierarchy, t sim.Time) {
	for len(e.svcLast) < h.NumServices() {
		e.svcLast = append(e.svcLast, 0)
	}
	for i := range e.svcLast {
		s := h.ServiceAt(i)
		j := s.Usage().EnergyJ()
		delta := j - e.svcLast[i]
		//pclint:allow floatsafe exact-zero fast path: an idle service contributes no record
		if delta != 0 {
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindService,
				ID: s.Index, Label: s.Qualified(), Client: s.Tenant.Name,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
			})
		}
		e.svcLast[i] = j
	}
	for len(e.tenLast) < h.NumTenants() {
		e.tenLast = append(e.tenLast, 0)
	}
	for i := range e.tenLast {
		ten := h.TenantAt(i)
		j := ten.Usage().EnergyJ()
		delta := j - e.tenLast[i]
		//pclint:allow floatsafe exact-zero fast path: an idle tenant contributes no record
		if delta != 0 {
			e.emit(Record{
				Tick: e.tick, T: t, Kind: KindTenant,
				ID: ten.Index, Label: ten.Name,
				//pclint:allow floatsafe tickSeconds is positive: withDefaults forces cfg.Tick > 0
				PowerW:     delta / e.tickSeconds(),
				EnergyJ:    delta,
				CumEnergyJ: j,
			})
		}
		e.tenLast[i] = j
	}
}

func (e *Engine) tickSeconds() float64 {
	return float64(e.cfg.Tick) / float64(sim.Second)
}

func (e *Engine) emit(r Record) {
	e.records++
	if e.Sink != nil {
		e.Sink.OnRecord(r)
	}
}

// checkLedger reconciles the streamed ledger (cumJ, accumulated from
// per-tick per-container deltas in emission order) against the facility's
// authoritative full-scan accounting — the live-stream conservation check.
func (e *Engine) checkLedger(t sim.Time) {
	want := e.src.Fac.TotalAccountedEnergyJ()
	diff := e.cumJ - want
	if diff < 0 {
		diff = -diff
	}
	bound := e.cfg.LedgerTol * (1 + abs(want))
	if diff > bound && e.Audit != nil {
		e.Audit.OnStreamViolation("stream-ledger", t,
			"streamed ledger "+formatFloat(e.cumJ)+" J vs accounted "+formatFloat(want)+" J")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// modeledTickMean averages the modeled active power of the metric
// buckets covering the last tick under the facility's current
// coefficients, evaluated on demand in ascending bucket order. Buckets
// not yet touched are skipped; a tick with none models 0 W.
func (e *Engine) modeledTickMean() float64 {
	ms := e.src.Fac.Metrics()
	cur := e.src.Fac.Coeff
	t := sim.Time(e.tick) * e.cfg.Tick
	iv := ms.Interval()
	lo := int((t - e.cfg.Tick) / iv)
	hi := int(t / iv)
	if n := ms.Len(); hi > n {
		hi = n
	}
	if hi <= lo {
		return 0
	}
	var sum float64
	for b := lo; b < hi; b++ {
		sum += cur.Estimate(ms.At(b))
	}
	return sum / float64(hi-lo)
}

func meanActive(samples []power.Sample, m power.Meter) float64 {
	if len(samples) == 0 || m == nil {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s.Watts - m.IdleW()
	}
	return sum / float64(len(samples))
}

// foldDrift aligns freshly delivered meter samples into (metrics, active
// power) pairs and maintains the windowed online refit: Fold on arrival,
// Unfold on eviction, periodic exact rebuild to bound Remove residue —
// the PR 4 incremental-fit machinery applied at stream level.
func (e *Engine) foldDrift(fresh []power.Sample) {
	if e.src.Meter == nil || len(fresh) == 0 {
		return
	}
	if !e.delayKnown {
		// Take the delay from the facility's recalibrator once it has
		// aligned (the estimate the attribution pipeline itself uses);
		// without a recalibrator fall back to the meter's nominal delay.
		// Samples arriving before the delay resolves are not aligned —
		// the drift monitor has a warm-up, deterministically.
		if r := e.src.Fac.Recalibrator(); r != nil {
			if d, ok := r.Delay(); ok {
				e.delay, e.delayKnown = d, true
			}
		} else {
			e.delay, e.delayKnown = e.src.Meter.Delay(), true
		}
		if !e.delayKnown {
			return
		}
	}
	ms := e.src.Fac.Metrics()
	plan := model.FitPlan{Scope: e.src.Scope, IncludeChipShare: e.src.Fac.Coeff.IncludesChipShare}
	if !e.planKnown || plan != e.plan || e.gram == nil {
		e.plan = plan
		e.planKnown = true
		e.rebuildGram()
	}
	for _, p := range align.AlignSamples(fresh, e.src.Meter.IdleW(), e.src.Meter.Interval(), ms, e.delay) {
		s := model.CalSample{M: p.M, Weight: 1}
		if e.src.Scope == model.ScopePackage {
			s.PkgActiveW = p.ActiveW
			s.MachineActiveW = p.ActiveW // unused in package scope
		} else {
			s.MachineActiveW = p.ActiveW
		}
		if err := e.plan.Fold(e.gram, s); err != nil {
			continue
		}
		e.pairs = append(e.pairs, s)
	}
	if over := len(e.pairs) - e.cfg.DriftWindow; over > 0 {
		for _, s := range e.pairs[:over] {
			if err := e.plan.Unfold(e.gram, s); err != nil {
				break
			}
		}
		e.pairs = append(e.pairs[:0], e.pairs[over:]...)
		e.evictions += over
		e.evTotal += int64(over)
		if e.evictions >= driftRebuildEvery {
			e.evictions = 0
			e.rebuildGram()
		}
	}
	e.solveDrift()
}

// rebuildGram reaccumulates the window from scratch — the exact fold
// sequence a batch FitGram over the retained pairs performs.
func (e *Engine) rebuildGram() {
	e.gram = linalg.NewGram(e.plan.K())
	for _, s := range e.pairs {
		if err := e.plan.Fold(e.gram, s); err != nil {
			continue
		}
	}
}

// solveDrift refreshes the windowed fit and its in-window error.
func (e *Engine) solveDrift() {
	if e.gram == nil || e.gram.N() < driftMinPairs {
		e.driftOK = false
		e.driftErr = 0
		return
	}
	c, err := model.FitFromGram(e.gram, model.FitOptions{
		Scope:            e.src.Scope,
		IncludeChipShare: e.plan.IncludeChipShare,
		IdleW:            e.src.Meter.IdleW(),
		Base:             e.src.Fac.Coeff,
	})
	if err != nil {
		e.driftOK = false
		e.driftErr = 0
		return
	}
	e.drift = c
	e.driftOK = true
	e.driftErr = model.FitError(c, e.pairs, e.src.Scope)
}
