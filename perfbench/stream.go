package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
	"powercontainers/internal/workload"
)

// streamWL is what `pcstream -dir` does, driven one tick at a time:
// SandyBridge serving GAE-Vosao at half load, recalibrated attribution,
// 100 ms ticks, a checkpoint every 10 ticks, and the WAL on the OS
// filesystem. Each tick the benchmark advances the simulation itself and
// then runs the stream step, which separates simulation time from stream
// time. A session ends with a restart — OpenStore plus Resume from the
// final checkpoint — and reads the durable stream back.
type streamWL struct {
	seed    uint64
	horizon sim.Time
	cfg     stream.Config
	workdir string
	as      experiments.Assembly

	sessions int
	// recoveryMS is the untraced sessions' restart time, for the report.
	recoveryMS []float64
}

func newStream(cfg config) *streamWL {
	s := &streamWL{
		seed:    cfg.seed,
		horizon: 120 * sim.Second,
		cfg:     stream.Config{Tick: 100 * sim.Millisecond, CheckpointEvery: 10},
		workdir: cfg.workdir,
		as:      experiments.Assembly{Audit: experiments.NewAuditCollector(false)},
	}
	if cfg.small {
		s.horizon = 3 * sim.Second
	}
	return s
}

func (s *streamWL) describe() about {
	return about{machines: []cpu.MachineSpec{cpu.SandyBridge}, output: "durable-stream", run: "stream session", op: "tick", jobs: 1}
}

// sources assembles the session's machine and load exactly as pcstream
// does, with the layer wrappers installed before any task exists.
func (s *streamWL) sources(tr *layers) (stream.Sources, *experiments.Machine, *server.LoadGen, error) {
	m, err := s.as.NewMachine(cpu.SandyBridge, core.ApproachRecalibrated, s.seed)
	if err != nil {
		return stream.Sources{}, nil, nil, err
	}
	if tr != nil {
		if err := tr.attach(m); err != nil {
			return stream.Sources{}, nil, nil, err
		}
	}
	dep := workload.GAE{}.Deploy(m.K, m.Rng.Fork(11))
	gen := server.NewLoadGen(m.K, m.Fac, dep)
	gen.RunOpenLoop(0.5*experiments.PeakRate(m.K.Spec, dep), s.horizon, m.Rng.Fork(13))
	var meter power.Meter
	scope := model.ScopeMachine
	if r := m.Fac.Recalibrator(); r != nil {
		meter, scope = r.Meter, r.Scope
	} else {
		meter, scope = m.Chip, model.ScopePackage
	}
	return stream.Sources{Eng: m.Eng, Fac: m.Fac, Meter: meter, Scope: scope}, m, gen, nil
}

func (s *streamWL) ticks() int { return int(s.horizon / s.cfg.Tick) }

// run is one durable session. Every tick is an operation; a session that
// errors, panics or fails a check fails all its ticks.
func (s *streamWL) run(p *phase) (rec runRec) {
	rec.ops = s.ticks()
	dir := filepath.Join(s.workdir, fmt.Sprintf("stream-%d", s.sessions))
	s.sessions++
	defer os.RemoveAll(dir)
	defer func() {
		if r := recover(); r != nil {
			p.fail("stream session: panic: %v", r)
			rec.failed = rec.ops
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		p.fail("stream session: %v", err)
		rec.failed = rec.ops
		return rec
	}
	sum, err := s.session(p, dir)
	if err != nil {
		p.fail("stream session: %v", err)
		rec.failed = rec.ops
		return rec
	}
	rec.digest = sum
	rec.simS = float64(s.horizon) / float64(sim.Second)
	return rec
}

func (s *streamWL) session(p *phase, dir string) (string, error) {
	tr := p.tr
	var fsys durable.FS = durable.OSFS{}
	if tr != nil {
		fsys = &timedFS{FS: fsys, s: &tr.fs}
	}
	src, m, gen, err := s.sources(tr)
	if err != nil {
		return "", err
	}
	st, rec, err := stream.OpenStore(fsys, dir, nil)
	if err != nil {
		return "", err
	}
	if rec.Mode != "fresh" {
		return "", fmt.Errorf("new store opened in mode %q", rec.Mode)
	}
	e, err := stream.Resume(src, s.cfg, st, rec)
	if err != nil {
		return "", err
	}
	emitted := stream.NewHasher()
	st.Next = emitted
	if tr != nil {
		e.Sink = &timedSink{next: st, l: tr}
	}
	for i := 1; i <= s.ticks(); i++ {
		w := startWatch()
		m.Eng.RunUntil(sim.Time(i) * s.cfg.Tick)
		t1 := time.Now()
		e.RunTicks(1)
		t2 := time.Now()
		p.op(w.read())
		if tr != nil {
			tr.simNS += int64(t1.Sub(w.t))
			tr.streamNS += int64(t2.Sub(t1))
			tr.ticks++
		}
	}
	if err := st.Close(); err != nil {
		return "", err
	}
	if tr != nil {
		tr.harvest(m, gen)
	}

	// Restart: a fresh machine recovers from the final checkpoint. The
	// replay machine is left unwrapped, so the core and sim counters cover
	// the streamed ticks only.
	src2, _, _, err := s.sources(nil)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	st2, rec2, err := stream.OpenStore(fsys, dir, nil)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	e2, err := stream.Resume(src2, s.cfg, st2, rec2)
	if err != nil {
		return "", err
	}
	t2 := time.Now()
	if tr != nil {
		tr.openNS += int64(t1.Sub(t0))
		tr.replayNS += int64(t2.Sub(t1))
	} else {
		s.recoveryMS = append(s.recoveryMS, float64(t2.Sub(t0))/float64(time.Millisecond))
	}
	if rec2.Mode != "checkpoint" || rec2.LastSeq != emitted.Count() || e2.Tick() != s.ticks() {
		return "", fmt.Errorf("recovery: mode %q, %d of %d records, resumed at tick %d of %d",
			rec2.Mode, rec2.LastSeq, emitted.Count(), e2.Tick(), s.ticks())
	}
	if err := st2.Close(); err != nil {
		return "", err
	}

	t3 := time.Now()
	h := sha256.New()
	var n int64
	if err := stream.ReadStream(fsys, dir, func(seq int64, line []byte) error {
		n = seq
		h.Write(line)
		return nil
	}); err != nil {
		return "", err
	}
	if tr != nil {
		tr.readbackNS += int64(time.Since(t3))
	}
	back := hex.EncodeToString(h.Sum(nil))
	if back != emitted.Sum() || n != emitted.Count() {
		return "", fmt.Errorf("read back %d records sha256 %s, emitted %d sha256 %s", n, back, emitted.Count(), emitted.Sum())
	}
	return back, nil
}

// reference streams the same machine through the engine's own RunUntil
// with no store, as `pcstream` without -dir does, and hashes the records.
func (s *streamWL) reference() (string, error) {
	src, _, _, err := s.sources(nil)
	if err != nil {
		return "", err
	}
	e := stream.New(src, s.cfg)
	h := stream.NewHasher()
	e.Sink = h
	e.RunUntil(s.horizon)
	return h.Sum(), nil
}

func (s *streamWL) report(res *result, p *phase) {
	// tick_p50_ms is the tracked op_wall_p50_ms. One tick in ten persists
	// the checkpoint taken the tick before; those ticks make the tail
	// above p90.
	res.printf("tick_p50_ms %.4f ms (op_wall_p50_ms), tick_p99_ms %.4f ms (%d ticks × %d sessions)",
		p.opQuantile(wallOf, 0.5), p.opQuantile(wallOf, 0.99), len(p.steps), len(p.runs))
	res.printf("recovery_ms %.2f ms (median of %d restarts)", median(s.recoveryMS), len(s.recoveryMS))
}
