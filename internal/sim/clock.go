// Package sim provides the deterministic discrete-event simulation core
// used by every substrate in this repository: a virtual clock measured in
// nanoseconds, an event queue with stable FIFO ordering for simultaneous
// events, and a seeded pseudo-random number generator.
//
// Machines that interact share one Engine and advance on a single virtual
// timeline. A cluster whose dispatcher never reads node state gives each
// node an Engine of its own and simulates them in parallel (see
// cluster.Dispatcher.Run).
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time = int64

// Convenient durations in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// FormatTime renders a virtual time as a human-readable duration string.
func FormatTime(t Time) string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", t)
	}
}

// Probe observes every event dispatch, for runtime invariant auditing
// (virtual-time monotonicity, FIFO ordering among simultaneous events).
// A nil probe — the default — costs only a nil check on the hot path.
type Probe interface {
	// OnStep fires immediately before an event's callback runs: now is
	// the clock before the step, at and seq identify the event being
	// dispatched.
	OnStep(now, at Time, seq uint64)
}

// Queue geometry.
//
// The near horizon is a hierarchical bit-indexed calendar: wheelLevels
// levels of 64 buckets each, level k bucketing time by bits
// [l0Shift+6k, l0Shift+6k+6) of the absolute timestamp. Level 0 buckets
// span 2^12 ns ≈ 4.1 µs; the whole wheel spans 2^36 ns ≈ 68.7 s, which
// covers every experiment horizon in this repository. Events beyond the
// current wheel span go to an index-addressed d-ary min-heap and drain
// into the wheel in bulk when the clock reaches their span, so each
// event pays at most one heap traversal and a constant number of bucket
// hops regardless of how many events are pending.
const (
	heapArity   = 4  // fan-out of the far-future min-heap
	l0Shift     = 12 // log2 of the level-0 bucket width in ns
	levelBits   = 6  // log2 of the bucket count per wheel level
	wheelLevels = 4
	bucketCount = 1 << levelBits
	// wheelSpanShift is the log2 of the full wheel span: timestamps that
	// differ from the wheel position in bits at or above this go to the
	// overflow heap.
	wheelSpanShift = l0Shift + wheelLevels*levelBits
)

// heapEntry is one pending event as seen by the queue (heap, bucket or
// sorted dispatch run). The ordering keys (at, seq) live inline so
// compares never chase a slot index into the arena. slot addresses the
// event's arena columns; gen pins the slot incarnation the entry belongs
// to, so a lazily cancelled entry (whose slot has moved on) is
// recognised and discarded when it surfaces for dispatch.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
	gen  uint32
}

// entryLess is the total event order: virtual time, then schedule
// sequence (FIFO among simultaneous events). Buckets partition by time
// and every dispatch run is sorted with this comparator, so the engine
// dispatches in exactly this order no matter which structure an event
// passed through — which is what keeps it bit-identical to the
// container/heap reference path.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// entryCmp adapts entryLess for slices.SortFunc. Distinct entries never
// compare equal ((at, seq) is a total order), so sort instability cannot
// reorder them.
func entryCmp(a, b heapEntry) int {
	if entryLess(a, b) {
		return -1
	}
	if entryLess(b, a) {
		return 1
	}
	return 0
}

// sortRun orders one dispatch run by (at, seq). Buckets fill in
// schedule order, and simulated work is heavily simultaneous (quantum
// expiries, sampling periods and request batches land on shared
// boundaries), so runs are very often already sorted — an O(n) prepass
// catches that before paying for a sort. Otherwise small runs take an
// inlined insertion sort and big ones fall back to slices.SortFunc.
// All three paths produce the same total order, so the choice never
// affects dispatch sequence.
//
//pclint:hotpath
func sortRun(b []heapEntry) {
	sorted := true
	for i := 1; i < len(b); i++ {
		if entryLess(b[i], b[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	if len(b) <= 24 {
		for i := 1; i < len(b); i++ {
			ent := b[i]
			j := i
			for j > 0 && entryLess(ent, b[j-1]) {
				b[j] = b[j-1]
				j--
			}
			b[j] = ent
		}
		return
	}
	slices.SortFunc(b, entryCmp)
}

// Handle identifies a scheduled event so that it can be cancelled. It
// pins the slot's incarnation: a Handle held across the event firing
// (and its arena slot being recycled for a new event) goes inert instead
// of aliasing the new occupant. The zero Handle is inert.
type Handle struct {
	// slot1 is the arena slot index plus one, so the zero Handle never
	// addresses slot 0.
	slot1 int32
	gen   uint32
}

// Engine is a discrete-event simulation driver. Events live in a
// struct-of-arrays arena addressed by slot index with generation-counted
// handles; slots are recycled through a free stack, so steady-state
// scheduling performs zero allocations. Pending events sit in a
// hierarchical timing wheel (near horizon) backed by an index-addressed
// d-ary min-heap (far horizon); dispatch consumes one sorted level-0
// bucket at a time. Cancellation is lazy: Cancel retires the slot in
// O(1) and the orphaned entry is dropped when it surfaces for dispatch,
// with an amortized compaction sweep if orphans pile up. It is not safe
// for concurrent use; an entire experiment runs on one goroutine.
type Engine struct {
	now   Time
	seq   uint64
	probe Probe

	// wheelPos is the start time of the level-0 bucket most recently
	// consumed into bottom, always l0-aligned. The wheel invariant:
	// level-k buckets only hold events inside the current level-(k+1)
	// bucket's window, and the heap only holds events beyond the current
	// wheel span.
	wheelPos Time

	// bottom is the current dispatch run: the most recently consumed
	// level-0 bucket, sorted by (at, seq), consumed from bottomIdx.
	// Events scheduled into the current bucket window are
	// insertion-sorted into the unconsumed tail.
	bottom    []heapEntry
	bottomIdx int

	// lvl/occ are the wheel buckets and their occupancy bitmaps; bit j
	// of occ[k] is set iff lvl[k][j] is nonempty.
	lvl [wheelLevels][bucketCount][]heapEntry
	occ [wheelLevels]uint64

	// heap is the d-ary min-heap of far-future events, ordered by
	// (at, seq).
	heap []heapEntry

	// live counts pending (scheduled, not fired, not cancelled) events;
	// dead counts orphaned entries from lazy cancellation still queued.
	live int
	dead int

	// Event arena, one column per field, addressed by slot index.
	// fn is the scheduled callback (nil once retired); gen is the slot's
	// incarnation counter for Handle and entry staleness checks.
	fn  []func()
	gen []uint32

	// free recycles retired slot indices. Scheduling is the hottest
	// path in a simulation (every context switch, I/O completion and
	// sampling period schedules at least one event), so fired/cancelled
	// slots go back to this stack instead of growing the arena.
	free []int32
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// SetProbe installs an audit probe (nil to disable).
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// Probe returns the installed audit probe, if any.
func (e *Engine) Probe() Probe { return e.probe }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it indicates a causality bug in the caller, not a recoverable condition.
//
//pclint:hotpath
func (e *Engine) At(t Time, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now)) //pclint:allow hotalloc panic path: formats only when a causality bug fires
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.fn))
		e.fn = append(e.fn, nil) //pclint:allow hotalloc arena growth; steady state recycles slots through retire
		e.gen = append(e.gen, 0) //pclint:allow hotalloc arena growth; steady state recycles slots through retire
	}
	g := e.gen[slot]
	e.fn[slot] = fn
	e.live++
	ent := heapEntry{at: t, seq: e.seq, slot: slot, gen: g}
	if t>>l0Shift <= e.wheelPos>>l0Shift {
		// At or behind the level-0 bucket the dispatcher is currently
		// consuming (peek may advance the wheel cursor ahead of the
		// clock, so t can trail it): insertion-sort into the unconsumed
		// tail of bottom, which dispatches strictly before every bucket
		// still in the wheel.
		lo, hi := e.bottomIdx, len(e.bottom)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if entryLess(e.bottom[mid], ent) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		e.bottom = append(e.bottom, heapEntry{}) //pclint:allow hotalloc dispatch-run growth is bounded by the peak bucket population
		copy(e.bottom[lo+1:], e.bottom[lo:])
		e.bottom[lo] = ent
	} else {
		e.scatter(ent)
	}
	return Handle{slot1: slot + 1, gen: g}
}

// scatter files an entry into the wheel level picked by the highest
// timestamp bit differing from the wheel position, or into the overflow
// heap when it lies beyond the wheel span. Callers guarantee
// t >= wheelPos and t outside the current bottom bucket.
//
//pclint:hotpath
func (e *Engine) scatter(ent heapEntry) {
	x := uint64(ent.at ^ e.wheelPos)
	for k := 0; k < wheelLevels; k++ {
		if x>>(l0Shift+(k+1)*levelBits) == 0 {
			j := (ent.at >> (l0Shift + k*levelBits)) & (bucketCount - 1)
			e.lvl[k][j] = append(e.lvl[k][j], ent) //pclint:allow hotalloc bucket growth; steady state reuses bucket capacity
			e.occ[k] |= 1 << uint(j)
			return
		}
	}
	e.heapPush(ent)
}

// After schedules fn to run d nanoseconds from now.
//
//pclint:hotpath
func (e *Engine) After(d Time, fn func()) Handle {
	return e.At(e.now+d, fn)
}

// retire returns a dequeued slot to the free stack, bumping its
// incarnation so outstanding Handles and queued entries to it go inert.
//
//pclint:hotpath
func (e *Engine) retire(slot int32) {
	e.gen[slot]++
	e.fn[slot] = nil
	e.free = append(e.free, slot) //pclint:allow hotalloc free-stack growth is bounded by the peak pending-event count
}

// Cancel removes a pending event. Cancelling an event that already fired,
// was already cancelled, or whose slot has since been recycled is a no-op.
// The queued entry is not touched here: retiring the slot bumps its
// generation, which orphans the entry; it is discarded when it surfaces
// for dispatch, or at the next compaction sweep if orphans pile up.
//
//pclint:hotpath
func (e *Engine) Cancel(h Handle) {
	slot := h.slot1 - 1
	if slot < 0 || int(slot) >= len(e.gen) || e.gen[slot] != h.gen {
		return
	}
	e.retire(slot)
	e.live--
	e.dead++
	// Amortized compaction: once orphans outnumber live entries the next
	// cancel pays one O(n) sweep, keeping memory bounded by the live
	// event count.
	if e.dead > 64 && e.dead > e.live {
		e.compact()
	}
}

// compact drops every orphaned entry in place. Relative order within
// each structure is preserved and (at, seq) is a total order, so
// dispatch order is unaffected.
//
//pclint:hotpath
func (e *Engine) compact() {
	tail := e.filterLive(e.bottom[e.bottomIdx:])
	e.bottom = e.bottom[:e.bottomIdx+len(tail)]
	for k := 0; k < wheelLevels; k++ {
		if e.occ[k] == 0 {
			continue
		}
		for j := 0; j < bucketCount; j++ {
			if e.occ[k]&(1<<uint(j)) == 0 {
				continue
			}
			b := e.filterLive(e.lvl[k][j])
			e.lvl[k][j] = b
			if len(b) == 0 {
				e.occ[k] &^= 1 << uint(j)
			}
		}
	}
	e.heap = e.filterLive(e.heap)
	if n := len(e.heap); n >= 2 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			e.siftDown(i)
		}
	}
	e.dead = 0
}

// filterLive compacts a run of entries down to those whose slot
// generation still matches, in place.
//
//pclint:hotpath
func (e *Engine) filterLive(s []heapEntry) []heapEntry {
	out := s[:0]
	for _, ent := range s {
		if e.gen[ent.slot] == ent.gen {
			out = append(out, ent) //pclint:allow hotalloc filters into the input's own backing array from s[:0], never past its capacity
		}
	}
	return out
}

// peek positions bottomIdx on the next live pending event, consuming
// wheel buckets and discarding cancellation orphans as needed. It
// reports whether any pending event exists. peek mutates cursor state
// but never changes dispatch order.
//
//pclint:hotpath
func (e *Engine) peek() bool {
	for {
		for e.bottomIdx < len(e.bottom) {
			ent := e.bottom[e.bottomIdx]
			if e.gen[ent.slot] == ent.gen {
				return true
			}
			e.bottomIdx++ // orphaned by a lazy Cancel: drop it
			e.dead--
		}
		if !e.advance() {
			return false
		}
	}
}

// advance moves the wheel to its next occupied source and loads one
// sorted level-0 bucket into bottom. It reports false when no events
// remain anywhere. Each event is touched a bounded number of times on
// its way down (heap drain → level hops → one sort), which is what makes
// steady-state dispatch O(1) amortized regardless of pending count.
//
//pclint:hotpath
func (e *Engine) advance() bool {
	for {
		// Level 0: consume the next occupied bucket in the current span.
		i := uint((e.wheelPos >> l0Shift) & (bucketCount - 1))
		if m := e.occ[0] >> i << i; m != 0 {
			j := uint(bits.TrailingZeros64(m))
			e.wheelPos = e.wheelPos&^(1<<(l0Shift+levelBits)-1) | Time(j)<<l0Shift
			e.occ[0] &^= 1 << j
			b := e.lvl[0][j]
			if len(b) > 1 {
				sortRun(b)
			}
			e.lvl[0][j] = e.bottom[:0] // swap backing arrays: both reuse capacity
			e.bottom = b
			e.bottomIdx = 0
			return true
		}
		// Levels 1..n: rescatter the next occupied bucket one level down.
		cascaded := false
		for k := 1; k < wheelLevels; k++ {
			shift := uint(l0Shift + k*levelBits)
			i := uint((e.wheelPos >> shift) & (bucketCount - 1))
			m := e.occ[k] >> i << i
			if m == 0 {
				continue
			}
			j := uint(bits.TrailingZeros64(m))
			e.wheelPos = e.wheelPos&^(1<<(shift+levelBits)-1) | Time(j)<<shift
			e.occ[k] &^= 1 << j
			b := e.lvl[k][j]
			e.lvl[k][j] = b[:0]
			for _, ent := range b {
				e.scatter(ent) // targets strictly lower levels: safe while iterating b
			}
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		// Overflow heap: jump the wheel to the next span with events and
		// drain that span's entries into it.
		if len(e.heap) > 0 {
			e.wheelPos = e.heap[0].at &^ (1<<l0Shift - 1)
			for len(e.heap) > 0 && uint64(e.heap[0].at^e.wheelPos)>>wheelSpanShift == 0 {
				ent := e.heap[0]
				e.heapPop()
				e.scatter(ent)
			}
			continue
		}
		return false
	}
}

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return e.live }

// NextEventAt peeks at the earliest pending event's time without running
// it. It reports false when no event is pending. Streaming consumers use
// it to tell a drained simulation (nothing left but clock advancement)
// from one with work still scheduled.
func (e *Engine) NextEventAt() (Time, bool) {
	if !e.peek() {
		return 0, false
	}
	return e.bottom[e.bottomIdx].at, true
}

// Step runs the next event, if any, advancing the clock to its time.
// It reports whether an event ran.
//
//pclint:hotpath
func (e *Engine) Step() bool {
	if !e.peek() {
		return false
	}
	ent := e.bottom[e.bottomIdx]
	e.bottomIdx++
	e.live--
	if e.probe != nil {
		e.probe.OnStep(e.now, ent.at, ent.seq)
	}
	e.now = ent.at
	fn := e.fn[ent.slot]
	// Retire before running fn: the callback may schedule new events, and
	// the freshly freed slot being reused inside fn is exactly the case
	// the generation counter exists for.
	e.retire(ent.slot)
	if fn != nil {
		fn()
	}
	return true
}

// RunUntil runs events with time ≤ t, then advances the clock to exactly t.
// Events scheduled during the run are honored if they fall within the bound.
func (e *Engine) RunUntil(t Time) {
	for e.peek() && e.bottom[e.bottomIdx].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Run drains every pending event, including ones scheduled along the way.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// heapPush adds an entry to the far-future d-ary min-heap.
//
//pclint:hotpath
func (e *Engine) heapPush(ent heapEntry) {
	e.heap = append(e.heap, ent) //pclint:allow hotalloc heap growth is bounded by the peak far-future event count
	e.siftUp(len(e.heap) - 1)
}

// heapPop removes heap[0], restoring the heap invariant.
//
//pclint:hotpath
func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	moved := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.heap[0] = moved
		e.siftDown(0)
	}
}

// siftUp restores the heap invariant upward from index i.
//
//pclint:hotpath
func (e *Engine) siftUp(i int) {
	h := e.heap
	ent := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !entryLess(ent, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ent
}

// siftDown restores the heap invariant downward from index i.
//
//pclint:hotpath
func (e *Engine) siftDown(i int) {
	h := e.heap
	ent := h[i]
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entryLess(h[c], h[best]) {
				best = c
			}
		}
		if !entryLess(h[best], ent) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ent
}
