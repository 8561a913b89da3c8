package stream_test

import (
	"bytes"
	"strings"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/model"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// TestCheckpointReplayReproducesStream is the exact-replay contract: for
// several cut points, checkpointing a streaming run at the cut, encoding
// and decoding the checkpoint, restoring it into a fresh engine over a
// freshly built identically-seeded machine (ReplayTo), and continuing to
// the horizon must reproduce the remaining record stream byte-for-byte —
// same canonical encodings, same SHA-256.
func TestCheckpointReplayReproducesStream(t *testing.T) {
	cases := []struct {
		name string
		cfg  stream.Config
		cuts []int
	}{
		{"default-window", stream.Config{Tick: 100 * sim.Millisecond}, []int{1, 17, 38}},
		// Resume around the attributed-ring eviction boundary: with an
		// 8-tick window, cut 7 checkpoints a not-yet-full ring, cut 8
		// an exactly-full one (the next append evicts), and cut 9 a
		// ring whose first slot has been folded into the prefix sum.
		{"eviction-boundary", stream.Config{Tick: 100 * sim.Millisecond, TickWindow: 8}, []int{7, 8, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { testCheckpointReplay(t, tc.cfg, tc.cuts) })
	}
}

func testCheckpointReplay(t *testing.T, cfg stream.Config, cuts []int) {
	const seed = 31

	// Baseline: one uninterrupted streaming run collecting everything.
	base := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
	be := stream.New(stream.Sources{Eng: base.m.Eng, Fac: base.m.Fac, Meter: base.m.Chip, Scope: model.ScopePackage}, cfg)
	var baseCol stream.Collector
	be.Sink = &baseCol
	be.RunUntil(base.end())
	if len(baseCol.Records) == 0 {
		t.Fatal("baseline emitted no records")
	}

	for _, cut := range cuts {
		// Run a fresh bed to the cut and checkpoint there.
		bed := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage}, cfg)
		e.RunTicks(cut)
		enc := stream.EncodeCheckpoint(e.Checkpoint())
		cp, err := stream.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("cut %d: decode: %v", cut, err)
		}

		// Restore into a fresh engine over a fresh machine and continue.
		bed2 := deployBed(t, core.ApproachRecalibrated, seed, workload.GAE{}, 0.4)
		re, err := stream.ReplayTo(stream.Sources{Eng: bed2.m.Eng, Fac: bed2.m.Fac, Meter: bed2.m.Chip, Scope: model.ScopePackage}, cfg, cp)
		if err != nil {
			t.Fatalf("cut %d: ReplayTo: %v", cut, err)
		}
		var tail stream.Collector
		re.Sink = &tail
		re.RunUntil(bed2.end())

		// The remaining stream must match the uninterrupted run exactly.
		var want stream.Collector
		for _, r := range baseCol.Records {
			if r.Tick > cut {
				want.OnRecord(r)
			}
		}
		if got, exp := stream.HashRecords(tail.Records), stream.HashRecords(want.Records); got != exp {
			t.Fatalf("cut %d: restored tail SHA-256 %s, uninterrupted tail %s (%d vs %d records)",
				cut, got, exp, len(tail.Records), len(want.Records))
		}
		if !bytes.Equal(tail.Encode(), want.Encode()) {
			t.Fatalf("cut %d: restored tail encoding differs from uninterrupted run", cut)
		}
		// Final engine state agrees too.
		if re.Records() != be.Records() || re.CumAttributedJ() != be.CumAttributedJ() {
			t.Fatalf("cut %d: final state records=%d cum=%v, want records=%d cum=%v",
				cut, re.Records(), re.CumAttributedJ(), be.Records(), be.CumAttributedJ())
		}
	}
}

// TestReplayToRejectsForeignCheckpoint pins the divergence guard: a
// checkpoint replayed over a machine that differs from the checkpointed
// one must fail the quiet replay's encoded-state comparison, and a
// checkpoint off the tick grid is refused up front. The perturbed cases
// run without recalibration and without a meter tap, so nothing but the
// checkpoint's metric fingerprint reads the perturbed coefficient or
// metric bucket.
func TestReplayToRejectsForeignCheckpoint(t *testing.T) {
	cfg := stream.Config{Tick: 100 * sim.Millisecond}
	sources := func(b testbed) stream.Sources {
		src := stream.Sources{Eng: b.m.Eng, Fac: b.m.Fac, Scope: model.ScopePackage}
		if b.m.Fac.Recalibrator() != nil {
			src.Meter = b.m.Chip
		}
		return src
	}
	cases := []struct {
		name     string
		approach core.Approach
		seed     uint64
		perturb  func(*core.Facility)
	}{
		{"other-seed", core.ApproachRecalibrated, 32, func(*core.Facility) {}},
		{"perturbed-coefficients", core.ApproachChipShare, 31, func(f *core.Facility) { f.Coeff.Disk += 0.5 }},
		{"perturbed-metrics", core.ApproachChipShare, 31, func(f *core.Facility) {
			f.Metrics().AddSpread(100*sim.Millisecond, 101*sim.Millisecond, model.Metrics{Disk: 1})
		}},
	}
	for _, tc := range cases {
		bed := deployBed(t, tc.approach, 31, workload.Stress{}, 0.5)
		e := stream.New(sources(bed), cfg)
		e.RunTicks(25)
		cp := e.Checkpoint()

		other := deployBed(t, tc.approach, tc.seed, workload.Stress{}, 0.5)
		tc.perturb(other.m.Fac)
		_, err := stream.ReplayTo(sources(other), cfg, cp)
		if err == nil || !strings.Contains(err.Error(), "quiet replay diverged") {
			t.Fatalf("%s: ReplayTo error = %v, want a quiet-replay divergence", tc.name, err)
		}
	}

	// A mismatched tick grid is rejected up front, before any replay.
	cp := &stream.Checkpoint{Version: stream.CheckpointVersion, Tick: 25, T: 25 * cfg.Tick}
	bed := deployBed(t, core.ApproachRecalibrated, 31, workload.Stress{}, 0.5)
	if _, err := stream.ReplayTo(sources(bed), stream.Config{Tick: 70 * sim.Millisecond}, cp); err == nil {
		t.Fatal("ReplayTo accepted a checkpoint off the configured tick grid")
	}
}

func TestDecodeCheckpointValidates(t *testing.T) {
	if _, err := stream.DecodeCheckpoint([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":99}`)); err == nil {
		t.Fatal("future version accepted")
	}
	for _, old := range []string{`{"version":1}`, `{"version":2}`} {
		if _, err := stream.DecodeCheckpoint([]byte(old)); err == nil {
			t.Fatalf("superseded version accepted: %s", old)
		}
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":3,"tick":-1}`)); err == nil {
		t.Fatal("negative tick accepted")
	}
	if _, err := stream.DecodeCheckpoint([]byte(`{"version":3,"tick":1,"metric_sha256":"abc"}`)); err == nil {
		t.Fatal("malformed metric fingerprint accepted")
	}
}

// auditProbe records AuditSink callbacks.
type auditProbe struct {
	checkpoints []int
	violations  []string
}

func (p *auditProbe) OnCheckpoint(tick int, t sim.Time, encodedBytes int) {
	p.checkpoints = append(p.checkpoints, tick)
	if encodedBytes <= 0 {
		panic("empty checkpoint encoding")
	}
}
func (p *auditProbe) OnStreamViolation(check string, t sim.Time, detail string) {
	p.violations = append(p.violations, check)
}

// TestAutomaticCheckpoints pins the periodic snapshot path: with
// CheckpointEvery set, the engine retains its latest checkpoint, fires
// the OnCheckpoint audit hook at each boundary, and the retained
// checkpoint is itself restorable.
func TestAutomaticCheckpoints(t *testing.T) {
	bed := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	probe := &auditProbe{}
	e := stream.New(stream.Sources{Eng: bed.m.Eng, Fac: bed.m.Fac, Meter: bed.m.Chip, Scope: model.ScopePackage},
		stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10})
	e.Audit = probe
	e.RunTicks(35)
	if e.LastCheckpoint() == nil || e.LastCheckpoint().Tick != 30 {
		t.Fatalf("LastCheckpoint = %+v, want tick 30", e.LastCheckpoint())
	}
	if len(probe.checkpoints) != 3 || probe.checkpoints[0] != 10 || probe.checkpoints[2] != 30 {
		t.Fatalf("OnCheckpoint ticks = %v, want [10 20 30]", probe.checkpoints)
	}
	if len(probe.violations) != 0 {
		t.Fatalf("stream violations on a clean run: %v", probe.violations)
	}

	bed2 := deployBed(t, core.ApproachRecalibrated, 33, workload.Stress{}, 0.5)
	re, err := stream.ReplayTo(stream.Sources{Eng: bed2.m.Eng, Fac: bed2.m.Fac, Meter: bed2.m.Chip, Scope: model.ScopePackage},
		stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10}, e.LastCheckpoint())
	if err != nil {
		t.Fatalf("replaying the automatic checkpoint: %v", err)
	}
	if re.Tick() != 30 {
		t.Fatalf("restored engine at tick %d, want 30", re.Tick())
	}
}
