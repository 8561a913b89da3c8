package sim

import (
	"testing"
)

// This file property- and fuzz-tests the arena engine against the
// container/heap reference engine in ref_test.go: identical operation
// sequences must produce bit-identical dispatch streams — same (at, seq)
// per step, same callback order, same clock — including around Cancel of
// pending, fired and recycled handles.

type probeRec struct {
	now, at Time
	seq     uint64
}

// recProbe records every dispatch and checks the two ordering invariants
// on the fly: virtual time never decreases, and simultaneous events fire
// in schedule (seq) order.
type recProbe struct {
	t    *testing.T
	name string
	recs []probeRec
}

func (p *recProbe) OnStep(now, at Time, seq uint64) {
	if at < now {
		p.t.Errorf("%s: dispatched event at %d before clock %d", p.name, at, now)
	}
	if n := len(p.recs); n > 0 {
		prev := p.recs[n-1]
		if at < prev.at {
			p.t.Errorf("%s: virtual time went backwards: %d after %d", p.name, at, prev.at)
		}
		if at == prev.at && seq <= prev.seq {
			p.t.Errorf("%s: FIFO violated at t=%d: seq %d after %d", p.name, at, seq, prev.seq)
		}
	}
	p.recs = append(p.recs, probeRec{now, at, seq})
}

// equivDriver applies one byte-encoded operation stream to both engines
// and fails the test on any divergence.
func equivDriver(t *testing.T, ops []byte) {
	t.Helper()
	arena := NewEngine()
	ref := newRefEngine()
	pa := &recProbe{t: t, name: "arena"}
	pr := &recProbe{t: t, name: "ref"}
	arena.SetProbe(pa)
	ref.SetProbe(pr)

	var firedA, firedR []int
	var handlesA []Handle
	var handlesR []refHandle
	nextID := 0

	pos := 0
	nextByte := func() byte {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return b
	}

	// schedule registers event id on both engines at the same offset.
	// Every third event's callback schedules a child event, so nested
	// scheduling (and slot recycling inside a dispatch) is exercised.
	schedule := func(delta Time) {
		id := nextID
		nextID++
		cbA := func() {
			firedA = append(firedA, id)
			if id%3 == 0 {
				arena.After(5*Microsecond, func() { firedA = append(firedA, id+1_000_000) })
			}
		}
		cbR := func() {
			firedR = append(firedR, id)
			if id%3 == 0 {
				ref.After(5*Microsecond, func() { firedR = append(firedR, id+1_000_000) })
			}
		}
		handlesA = append(handlesA, arena.After(delta, cbA))
		handlesR = append(handlesR, ref.After(delta, cbR))
	}

	for pos < len(ops) {
		op := nextByte()
		switch op % 8 {
		case 0, 1, 2:
			// Coarse deltas force same-timestamp collisions, which is
			// where FIFO tie-breaking actually gets exercised.
			schedule(Time(nextByte()%16) * Microsecond)
		case 3:
			// Cancel an arbitrary past handle: it may be pending, fired,
			// cancelled already, or its slot recycled — all must behave
			// identically on both engines.
			if len(handlesA) > 0 {
				i := int(nextByte()) % len(handlesA)
				arena.Cancel(handlesA[i])
				ref.Cancel(handlesR[i])
			}
		case 4, 5:
			ranA := arena.Step()
			ranR := ref.Step()
			if ranA != ranR {
				t.Fatalf("Step diverged: arena=%v ref=%v", ranA, ranR)
			}
		case 6:
			d := Time(nextByte()%64) * Microsecond
			arena.RunUntil(arena.Now() + d)
			ref.RunUntil(ref.Now() + d)
		case 7:
			if arena.Pending() != ref.Pending() {
				t.Fatalf("Pending diverged: arena=%d ref=%d", arena.Pending(), ref.Pending())
			}
			atA, okA := arena.NextEventAt()
			atR, okR := ref.NextEventAt()
			if atA != atR || okA != okR {
				t.Fatalf("NextEventAt diverged: arena=(%d,%v) ref=(%d,%v)", atA, okA, atR, okR)
			}
		}
		if arena.Now() != ref.Now() {
			t.Fatalf("clock diverged: arena=%d ref=%d", arena.Now(), ref.Now())
		}
	}
	arena.Run()
	ref.Run()

	if arena.Now() != ref.Now() {
		t.Fatalf("final clock diverged: arena=%d ref=%d", arena.Now(), ref.Now())
	}
	if len(firedA) != len(firedR) {
		t.Fatalf("fired %d callbacks on arena, %d on ref", len(firedA), len(firedR))
	}
	for i := range firedA {
		if firedA[i] != firedR[i] {
			t.Fatalf("callback order diverged at %d: arena=%d ref=%d", i, firedA[i], firedR[i])
		}
	}
	if len(pa.recs) != len(pr.recs) {
		t.Fatalf("dispatched %d events on arena, %d on ref", len(pa.recs), len(pr.recs))
	}
	for i := range pa.recs {
		if pa.recs[i] != pr.recs[i] {
			t.Fatalf("dispatch %d diverged: arena=%+v ref=%+v", i, pa.recs[i], pr.recs[i])
		}
	}
}

// TestArenaMatchesReferenceProperty drives long random op streams from
// several seeds through both engines.
func TestArenaMatchesReferenceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := NewRand(seed * 101)
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		equivDriver(t, ops)
	}
}

// TestRecycledHandleGenerations pins the exact recycle-aliasing scenario:
// fire a batch, watch slots recycle, and cancel every stale handle while
// the slots' new occupants are pending.
func TestRecycledHandleGenerations(t *testing.T) {
	arena := NewEngine()
	ref := newRefEngine()
	var staleA []Handle
	var staleR []refHandle
	for i := 0; i < 64; i++ {
		staleA = append(staleA, arena.After(Time(i)*Microsecond, func() {}))
		staleR = append(staleR, ref.After(Time(i)*Microsecond, func() {}))
	}
	arena.Run()
	ref.Run()

	firedA, firedR := 0, 0
	for i := 0; i < 64; i++ {
		arena.After(Time(i)*Microsecond, func() { firedA++ })
		ref.After(Time(i)*Microsecond, func() { firedR++ })
	}
	// Every stale handle points at a recycled arena slot now; cancelling
	// them must not touch the new occupants.
	for i := range staleA {
		arena.Cancel(staleA[i])
		ref.Cancel(staleR[i])
	}
	arena.Run()
	ref.Run()
	if firedA != 64 || firedR != 64 {
		t.Fatalf("stale cancels hit live events: arena fired %d, ref fired %d, want 64", firedA, firedR)
	}
}

// FuzzArenaMatchesReference lets the fuzzer search for op sequences on
// which the two engines diverge.
func FuzzArenaMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0, 5, 4, 4, 3, 0})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 1, 6, 63, 7})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 4, 4, 4, 3, 0, 0, 0, 6, 10, 7, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<14 {
			t.Skip("cap op streams so the fuzzer explores breadth, not length")
		}
		equivDriver(t, ops)
	})
}
