package cpu

import (
	"fmt"
	"math"

	"powercontainers/internal/sim"
)

// NoOverflow is returned by TimeToOverflow when overflow interrupts are
// disabled or the core is configured with no threshold.
const NoOverflow = sim.Time(math.MaxInt64)

// Core is one simulated CPU core. It exposes exactly the hardware surface
// the paper's facility programs: cumulative event counters, a non-halt-cycle
// overflow threshold for the local interrupt controller, and the duty-cycle
// modulation register.
//
// A Core is passive: the kernel drives it by calling AdvanceBusy for each
// execution segment. Counter state uses float64 accumulators so fractional
// event rates integrate exactly across segments of any length.
type Core struct {
	// ID is the global core index; Chip is the owning socket.
	ID   int
	Chip int
	// FreqHz is the core clock frequency.
	FreqHz float64

	dutyLevel int // current duty level, 1..dutyMax
	dutyMax   int

	counters Counters

	overflowThreshold float64 // non-halt cycles between interrupts, 0 = off
	sinceOverflow     float64

	// LastSampleTime and LastUtil are the most recent hardware counter
	// sample "in memory": the per-core published statistics that sibling
	// cores read without synchronization when estimating the chip power
	// share (Eq. 3). Because overflow interrupts stop on an idle core,
	// these values go stale exactly as the paper describes.
	LastSampleTime sim.Time
	LastUtil       float64

	// DutyRegReads and DutyRegWrites count accesses to the duty-cycle
	// control register, mirroring the paper's §3.5 overhead accounting
	// (~265 cycles to read, ~350 to write).
	DutyRegReads  uint64
	DutyRegWrites uint64
}

// NewCore returns a core running at full duty with interrupts disabled.
func NewCore(id int, spec MachineSpec) *Core {
	return &Core{
		ID:        id,
		Chip:      spec.ChipOf(id),
		FreqHz:    spec.FreqHz,
		dutyLevel: spec.DutyLevels,
		dutyMax:   spec.DutyLevels,
	}
}

// Counters returns the cumulative event counts.
func (c *Core) Counters() Counters { return c.counters }

// AddEvents injects extra events into the counters. The facility uses it to
// model the observer effect: each container maintenance operation itself
// retires instructions and touches the cache, perturbing the very counters
// being sampled.
func (c *Core) AddEvents(ev Counters) {
	c.counters.Accumulate(ev)
}

// DutyLevel reads the duty-cycle modulation register (level out of
// DutyMax; DutyMax means no modulation).
func (c *Core) DutyLevel() int {
	c.DutyRegReads++
	return c.dutyLevel
}

// DutyMax returns the number of modulation steps.
func (c *Core) DutyMax() int { return c.dutyMax }

// SetDutyLevel writes the duty-cycle modulation register, clamping to the
// valid range [1, DutyMax].
func (c *Core) SetDutyLevel(level int) {
	c.DutyRegWrites++
	if level < 1 {
		level = 1
	}
	if level > c.dutyMax {
		level = c.dutyMax
	}
	c.dutyLevel = level
}

// DutyFraction returns the fraction of regular cycles that are duty cycles.
// During non-duty periods the core is effectively halted: work progress,
// event rates and non-halt cycle accumulation all scale by this fraction.
func (c *Core) DutyFraction() float64 {
	return float64(c.dutyLevel) / float64(c.dutyMax)
}

// effectiveHz is the rate at which non-halt cycles accrue while busy.
func (c *Core) effectiveHz() float64 { return c.FreqHz * c.DutyFraction() }

// CyclesIn returns the non-halt cycles accrued over a busy wall-clock span
// at the current duty level.
func (c *Core) CyclesIn(wall sim.Time) float64 {
	return float64(wall) / float64(sim.Second) * c.effectiveHz()
}

// WallFor returns the busy wall-clock time needed to accrue the given
// number of non-halt cycles at the current duty level, rounded up to at
// least 1 ns so that progress is always made.
func (c *Core) WallFor(cycles float64) sim.Time {
	if cycles <= 0 {
		return 0
	}
	ns := cycles / c.effectiveHz() * float64(sim.Second)
	t := sim.Time(math.Ceil(ns))
	if t < 1 {
		t = 1
	}
	return t
}

// AdvanceBusy accrues wall nanoseconds of busy execution under the given
// activity profile, updating counters and overflow progress. It returns the
// counter delta for the segment.
func (c *Core) AdvanceBusy(wall sim.Time, act Activity) Counters {
	cycles := c.CyclesIn(wall)
	ev := act.Events(cycles)
	c.counters.Accumulate(ev)
	if c.overflowThreshold > 0 {
		c.sinceOverflow += cycles
	}
	return ev
}

// SetOverflowThreshold programs the interrupt controller to fire after the
// given number of non-halt cycles; 0 disables overflow interrupts. Non-halt
// triggering means interrupts are naturally suppressed while the core idles.
func (c *Core) SetOverflowThreshold(cycles float64) {
	if cycles < 0 {
		panic(fmt.Sprintf("cpu: negative overflow threshold %g", cycles))
	}
	c.overflowThreshold = cycles
	c.sinceOverflow = 0
}

// OverflowThreshold returns the programmed threshold (0 when disabled).
func (c *Core) OverflowThreshold() float64 { return c.overflowThreshold }

// TimeToOverflow returns the busy wall-clock time remaining until the next
// overflow interrupt at the current duty level, or NoOverflow when disabled.
func (c *Core) TimeToOverflow() sim.Time {
	if c.overflowThreshold <= 0 {
		return NoOverflow
	}
	remaining := c.overflowThreshold - c.sinceOverflow
	if remaining <= 0 {
		return 0
	}
	return c.WallFor(remaining)
}

// Overflowed reports whether the overflow threshold has been crossed, and
// resets the progress counter when it has.
func (c *Core) Overflowed() bool {
	if c.overflowThreshold <= 0 || c.sinceOverflow < c.overflowThreshold {
		return false
	}
	c.sinceOverflow -= c.overflowThreshold
	if c.sinceOverflow < 0 || c.sinceOverflow >= c.overflowThreshold {
		c.sinceOverflow = 0
	}
	return true
}

// PublishSample records the core's most recent utilization sample where
// sibling cores can read it without synchronization (Eq. 3 input).
func (c *Core) PublishSample(now sim.Time, util float64) {
	c.LastSampleTime = now
	c.LastUtil = util
}

// Execution translates a workload op's machine-independent work description
// (base reference cycles plus an activity signature) into this machine's
// effective cycle count and on-machine activity rates. Two effects inflate
// the cycle count: the machine's microarchitectural work scale (older cores
// retire the same instructions in more cycles) and memory stalls. Total
// event counts stay fixed while the cycle count inflates, so per-cycle
// rates deflate accordingly.
func Execution(spec MachineSpec, baseCycles float64, act Activity) (cycles float64, eff Activity) {
	ws := spec.WorkScale
	if ws == 0 {
		ws = 1
	}
	inflate := ws + act.MemPC*spec.MemStallCycles
	cycles = baseCycles * inflate
	if inflate <= 0 {
		panic("cpu: non-positive cycle inflation")
	}
	eff = Activity{
		IPC:   act.IPC / inflate,
		FLOPC: act.FLOPC / inflate,
		LLCPC: act.LLCPC / inflate,
		MemPC: act.MemPC / inflate,
	}
	return cycles, eff
}
