package stats

import (
	"encoding/json"
	"math"
	"testing"

	"powercontainers/internal/sim"
)

func TestRingWrapAround(t *testing.T) {
	r := NewRing(sim.Millisecond, 4)
	for i := 0; i < 10; i++ {
		if got := r.Append(float64(i)); got != i {
			t.Fatalf("Append #%d returned index %d", i, got)
		}
	}
	if r.Len() != 10 || r.Lo() != 6 || r.Retained() != 4 {
		t.Fatalf("len=%d lo=%d retained=%d, want 10/6/4", r.Len(), r.Lo(), r.Retained())
	}
	for i := 0; i < 6; i++ {
		if _, ok := r.At(i); ok {
			t.Fatalf("evicted slot %d still readable", i)
		}
	}
	for i := 6; i < 10; i++ {
		v, ok := r.At(i)
		if !ok || v != float64(i) {
			t.Fatalf("At(%d) = %v, %v; want %d, true", i, v, ok, i)
		}
	}
	if _, ok := r.At(10); ok {
		t.Fatal("unwritten slot 10 readable")
	}
}

func TestRingEvictionSum(t *testing.T) {
	// Values chosen so that summation order matters in float64: a batch
	// left-to-right sum over the full history must match Total() exactly.
	vals := []float64{1e16, 1, -1e16, 3.25, 1e-3, 7, 1e16, 2, -1e16, 0.125}
	r := NewRing(sim.Millisecond, 3)
	var batch float64
	for _, v := range vals {
		r.Append(v)
		batch += v
	}
	if got := r.Total(); got != batch {
		t.Fatalf("Total = %g, batch sequential sum = %g", got, batch)
	}
	var prefix float64
	for _, v := range vals[:len(vals)-3] {
		prefix += v
	}
	if got := r.EvictedSum(); got != prefix {
		t.Fatalf("EvictedSum = %g, want sequential prefix %g", got, prefix)
	}
}

func TestRingReadSinceAcrossWrapSeam(t *testing.T) {
	r := NewRing(sim.Millisecond, 4)
	for i := 0; i < 7; i++ { // window [3,7), seam inside buf
		r.Append(float64(i * 10))
	}
	got, from := r.ReadSince(0)
	if from != 3 || len(got) != 4 {
		t.Fatalf("ReadSince(0) from=%d len=%d, want 3, 4", from, len(got))
	}
	for i, v := range got {
		if v != float64((from+i)*10) {
			t.Fatalf("ReadSince(0)[%d] = %v, want %d", i, v, (from+i)*10)
		}
	}
	got, from = r.ReadSince(5)
	if from != 5 || len(got) != 2 || got[0] != 50 || got[1] != 60 {
		t.Fatalf("ReadSince(5) = %v from %d", got, from)
	}
	if got, from = r.ReadSince(7); got != nil || from != 7 {
		t.Fatalf("ReadSince(7) = %v from %d, want nil, 7", got, from)
	}
}

func TestRingZeroCapacity(t *testing.T) {
	r := NewRing(sim.Millisecond, 0)
	var batch float64
	for i := 0; i < 5; i++ {
		v := float64(i) + 0.5
		if got := r.Append(v); got != i {
			t.Fatalf("Append #%d returned %d", i, got)
		}
		batch += v
	}
	if r.Len() != 5 || r.Lo() != 5 || r.Retained() != 0 {
		t.Fatalf("len=%d lo=%d retained=%d, want 5/5/0", r.Len(), r.Lo(), r.Retained())
	}
	if _, ok := r.At(4); ok {
		t.Fatal("zero-capacity ring retained a slot")
	}
	if r.Set(4, 1) {
		t.Fatal("Set landed on zero-capacity ring")
	}
	if got := r.Total(); got != batch {
		t.Fatalf("Total = %g, want %g", got, batch)
	}
	if vals, from := r.ReadSince(0); vals != nil || from != 5 {
		t.Fatalf("ReadSince(0) = %v from %d, want nil, 5", vals, from)
	}
}

func TestRingSingleSlot(t *testing.T) {
	r := NewRing(sim.Millisecond, 1)
	r.Append(2)
	if v, ok := r.At(0); !ok || v != 2 {
		t.Fatalf("At(0) = %v, %v", v, ok)
	}
	r.Append(3)
	if _, ok := r.At(0); ok {
		t.Fatal("slot 0 survived eviction in single-slot ring")
	}
	if v, ok := r.At(1); !ok || v != 3 {
		t.Fatalf("At(1) = %v, %v", v, ok)
	}
	if !r.Set(1, 4) {
		t.Fatal("Set(1) rejected")
	}
	if got := r.EvictedSum(); got != 2 {
		t.Fatalf("EvictedSum = %g, want 2", got)
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("Total = %g, want 6", got)
	}
}

func TestRingSetBounds(t *testing.T) {
	r := NewRing(sim.Millisecond, 2)
	r.Append(1)
	r.Append(2)
	r.Append(3) // evicts slot 0
	if r.Set(0, 9) {
		t.Fatal("Set on evicted slot landed")
	}
	if r.Set(3, 9) {
		t.Fatal("Set above hi landed")
	}
	if !r.Set(2, 9) {
		t.Fatal("Set on retained slot rejected")
	}
	if v, _ := r.At(2); v != 9 {
		t.Fatalf("At(2) = %v after Set", v)
	}
}

func TestRingStateRoundTrip(t *testing.T) {
	r := NewRing(10*sim.Millisecond, 3)
	for i := 0; i < 8; i++ {
		r.Append(float64(i) * 1.0625e-3)
	}
	enc, err := json.Marshal(r.State())
	if err != nil {
		t.Fatal(err)
	}
	var st RingState
	if err := json.Unmarshal(enc, &st); err != nil {
		t.Fatal(err)
	}
	got, err := RestoreRing(st)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != r.Len() || got.Lo() != r.Lo() || got.EvictedSum() != r.EvictedSum() {
		t.Fatalf("restored len/lo/evicted = %d/%d/%g, want %d/%d/%g",
			got.Len(), got.Lo(), got.EvictedSum(), r.Len(), r.Lo(), r.EvictedSum())
	}
	for i := r.Lo(); i < r.Len(); i++ {
		a, _ := r.At(i)
		b, _ := got.At(i)
		if a != b {
			t.Fatalf("slot %d: restored %v, want %v", i, b, a)
		}
	}
	if got.Total() != r.Total() {
		t.Fatalf("restored Total %v, want %v", got.Total(), r.Total())
	}
}

// TestRingRestoreAfterEvictionContinues drives a snapshotted-and-restored
// ring and its uninterrupted original through the same order-sensitive
// tail of appends: the restore must preserve the eviction cursor and the
// sequential prefix sum bit-for-bit, so every later observation —
// eviction sums, totals, window reads — stays identical to the ring that
// never stopped.
func TestRingRestoreAfterEvictionContinues(t *testing.T) {
	vals := []float64{1e16, 1, -1e16, 3.25, 1e-3, 7, 1e16, 2, -1e16, 0.125}
	orig := NewRing(sim.Millisecond, 3)
	for _, v := range vals[:6] { // lo=3: eviction well under way at the cut
		orig.Append(v)
	}
	rest, err := RestoreRing(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[6:] {
		orig.Append(v)
		rest.Append(v)
	}
	if rest.Len() != orig.Len() || rest.Lo() != orig.Lo() {
		t.Fatalf("restored len/lo = %d/%d, want %d/%d", rest.Len(), rest.Lo(), orig.Len(), orig.Lo())
	}
	if rest.EvictedSum() != orig.EvictedSum() || rest.Total() != orig.Total() {
		t.Fatalf("restored evicted/total = %g/%g, want %g/%g",
			rest.EvictedSum(), rest.Total(), orig.EvictedSum(), orig.Total())
	}
	a, af := orig.ReadSince(0)
	b, bf := rest.ReadSince(0)
	if af != bf || len(a) != len(b) {
		t.Fatalf("ReadSince(0): restored from=%d len=%d, want from=%d len=%d", bf, len(b), af, len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ReadSince(0)[%d] = %v, want %v", i, b[i], a[i])
		}
	}
}

// TestRingRestoreResizedWindow restores one snapshot into larger and
// exactly-fitting capacities: the retained window, cursor and prefix sum
// carry over unchanged, a grown window simply defers the next eviction,
// and a capacity too small for the retained slots is rejected (shrinking
// would have to silently evict, breaking the sequential-sum contract).
func TestRingRestoreResizedWindow(t *testing.T) {
	orig := NewRing(sim.Millisecond, 3)
	for i := 0; i < 8; i++ { // window [5,8)
		orig.Append(float64(i) * 1.0625)
	}
	st := orig.State()

	grown := st
	grown.Cap = 5
	g, err := RestoreRing(grown)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cap() != 5 || g.Lo() != orig.Lo() || g.EvictedSum() != orig.EvictedSum() || g.Total() != orig.Total() {
		t.Fatalf("grown restore: cap=%d lo=%d evicted=%g total=%g", g.Cap(), g.Lo(), g.EvictedSum(), g.Total())
	}
	// Two appends fill the spare slots without evicting; the third evicts
	// slot 5 — the oldest retained slot from before the restore.
	g.Append(100)
	g.Append(101)
	if g.Lo() != 5 {
		t.Fatalf("grown window evicted early: lo=%d", g.Lo())
	}
	g.Append(102)
	if g.Lo() != 6 {
		t.Fatalf("grown window did not evict at new capacity: lo=%d", g.Lo())
	}
	if want := orig.EvictedSum() + 5*1.0625; g.EvictedSum() != want {
		t.Fatalf("grown eviction folded %g, want %g", g.EvictedSum(), want)
	}

	exact := st
	exact.Cap = len(st.Values)
	e, err := RestoreRing(exact)
	if err != nil {
		t.Fatalf("exact-fit restore rejected: %v", err)
	}
	if e.Total() != orig.Total() {
		t.Fatalf("exact-fit total %g, want %g", e.Total(), orig.Total())
	}

	shrunk := st
	shrunk.Cap = len(st.Values) - 1
	if _, err := RestoreRing(shrunk); err == nil {
		t.Fatal("restore into a window smaller than the retained slots accepted")
	}
}

func TestRestoreRingRejectsBadState(t *testing.T) {
	bad := []RingState{
		{Interval: 0, Cap: 1},
		{Interval: 1, Cap: -1},
		{Interval: 1, Cap: 1, Lo: 2, Hi: 1},
		{Interval: 1, Cap: 1, Lo: 0, Hi: 2, Values: []float64{1, 2}},
		{Interval: 1, Cap: 2, Lo: 0, Hi: 2, Values: []float64{1}},
	}
	for i, st := range bad {
		if _, err := RestoreRing(st); err == nil {
			t.Fatalf("bad state %d accepted", i)
		}
	}
}

// FuzzRingBuffer drives a ring and a trivial reference model (a plain
// slice plus an eviction cursor) with the same operation stream and
// requires bit-identical observations, including across the wrap seam.
func FuzzRingBuffer(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 3, 4, 5, 250, 251, 6, 7})
	f.Add(uint8(0), []byte{0, 1, 2, 3})
	f.Add(uint8(1), []byte{9, 250, 9, 251, 9})
	f.Add(uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 250, 252})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		capN := int(capacity % 9)
		r := NewRing(sim.Millisecond, capN)
		var ref []float64 // full history
		lo := 0           // first non-evicted index
		for pos, op := range ops {
			switch {
			case op < 250: // append op-derived value
				v := (float64(op) - 31.5) * 1.0625
				r.Append(v)
				ref = append(ref, v)
				if len(ref)-lo > capN {
					lo++
				}
			case op == 250: // Set somewhere around the window edges
				if len(ref) == 0 {
					continue
				}
				i := pos % (len(ref) + 1)
				ok := r.Set(i, 99.5)
				wantOK := i >= lo && i < len(ref)
				if ok != wantOK {
					t.Fatalf("Set(%d) ok=%v, want %v", i, ok, wantOK)
				}
				if wantOK {
					ref[i] = 99.5
				}
			case op == 251: // ReadSince at varying skips
				skip := pos % (len(ref) + 2)
				got, from := r.ReadSince(skip)
				wantFrom := skip
				if wantFrom < lo {
					wantFrom = lo
				}
				if wantFrom > len(ref) {
					wantFrom = len(ref)
				}
				want := ref[wantFrom:]
				if from != wantFrom && len(want) > 0 {
					t.Fatalf("ReadSince(%d) from=%d, want %d", skip, from, wantFrom)
				}
				if len(got) != len(want) {
					t.Fatalf("ReadSince(%d) len=%d, want %d", skip, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("ReadSince(%d)[%d] = %v, want %v", skip, i, got[i], want[i])
					}
				}
			default: // At over the whole history plus one
				for i := 0; i <= len(ref); i++ {
					v, ok := r.At(i)
					wantOK := i >= lo && i < len(ref)
					if ok != wantOK {
						t.Fatalf("At(%d) ok=%v, want %v", i, ok, wantOK)
					}
					if ok && v != ref[i] {
						t.Fatalf("At(%d) = %v, want %v", i, v, ref[i])
					}
				}
			}
			// Invariants checked after every op.
			if r.Len() != len(ref) || r.Lo() != lo {
				t.Fatalf("len/lo = %d/%d, want %d/%d", r.Len(), r.Lo(), len(ref), lo)
			}
			var evicted float64
			for _, v := range ref[:lo] {
				evicted += v
			}
			if r.EvictedSum() != evicted && !math.IsNaN(evicted) {
				t.Fatalf("EvictedSum = %v, want %v", r.EvictedSum(), evicted)
			}
		}
	})
}
