package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"powercontainers/internal/cpu"
	"powercontainers/internal/durable"
	"powercontainers/internal/experiments"
	"powercontainers/internal/kernel"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/stream"
)

// layers accumulates a traced phase's per-layer counters and times. Every
// figure is taken from outside the program, around the public calls and
// seams each layer exposes. Per-call hooks are summed, never kept one by
// one: the facility hook fires ~20M times per validate pass.
type layers struct {
	events int64 // sim.Probe dispatches
	hooks  [3]hookStat
	// simNS is host time inside Engine.RunUntil (validate: the whole cell),
	// core hooks included; the sim layer's self time excludes them.
	simNS    int64
	streamNS int64 // inside stream.Engine.RunTicks, the sink included
	sinkNS   int64 // inside the Store's OnRecord
	sinkFSNS int64 // WAL syncs and checkpoint writes made from OnRecord
	ticks    int64
	records  int64
	requests int64

	alignSamples, refits, rejected, fallbacks int64

	fs fsStats

	openNS, replayNS, readbackNS int64
}

const (
	hookInterrupt = iota
	hookSwitch
	hookOther
)

type hookStat struct{ calls, ns int64 }

func (h *hookStat) add(t0 time.Time) {
	h.calls++
	h.ns += int64(time.Since(t0))
}

// attach installs the counting wrappers on a freshly assembled machine:
// the kernel's Monitor (the facility's hooks) and the engine's Probe. The
// Probe slot must be free; an auditor holding it would be displaced.
func (l *layers) attach(m *experiments.Machine) error {
	if m.Eng.Probe() != nil {
		return fmt.Errorf("engine probe already installed (is auditing on?)")
	}
	m.Eng.SetProbe(&countProbe{n: &l.events})
	m.K.Monitor = &timedMonitor{Monitor: m.K.Monitor, h: &l.hooks}
	return nil
}

// harvest adds a finished machine's layer counters.
func (l *layers) harvest(m *experiments.Machine, gen *server.LoadGen) {
	l.requests += int64(len(gen.Completed()))
	if r := m.Fac.Recalibrator(); r != nil {
		l.alignSamples += int64(r.Delivered())
		l.refits += int64(r.Refits())
		l.rejected += int64(r.Rejected())
		l.fallbacks += int64(r.Fallbacks())
	}
}

func (l *layers) hookNS() int64 { return l.hooks[0].ns + l.hooks[1].ns + l.hooks[2].ns }

func (l *layers) hookCalls() int64 {
	return l.hooks[0].calls + l.hooks[1].calls + l.hooks[2].calls
}

// countProbe counts event dispatches.
type countProbe struct{ n *int64 }

func (p *countProbe) OnStep(now, at sim.Time, seq uint64) { *p.n++ }

// timedMonitor times every kernel→facility hook call.
type timedMonitor struct {
	kernel.Monitor
	h *[3]hookStat
}

func (m *timedMonitor) OnInterrupt(c *cpu.Core, t *kernel.Task) {
	t0 := time.Now()
	m.Monitor.OnInterrupt(c, t)
	m.h[hookInterrupt].add(t0)
}

func (m *timedMonitor) OnSwitch(c *cpu.Core, prev, next *kernel.Task) {
	t0 := time.Now()
	m.Monitor.OnSwitch(c, prev, next)
	m.h[hookSwitch].add(t0)
}

func (m *timedMonitor) OnBind(t *kernel.Task, ctx kernel.Context) {
	t0 := time.Now()
	m.Monitor.OnBind(t, ctx)
	m.h[hookOther].add(t0)
}

func (m *timedMonitor) OnFork(parent, child *kernel.Task) {
	t0 := time.Now()
	m.Monitor.OnFork(parent, child)
	m.h[hookOther].add(t0)
}

func (m *timedMonitor) OnExit(t *kernel.Task) {
	t0 := time.Now()
	m.Monitor.OnExit(t)
	m.h[hookOther].add(t0)
}

func (m *timedMonitor) OnIO(t *kernel.Task, dev kernel.DeviceKind, bytes int64, busy sim.Time, watts float64) {
	t0 := time.Now()
	m.Monitor.OnIO(t, dev, bytes, busy, watts)
	m.h[hookOther].add(t0)
}

func (m *timedMonitor) OnTaskStart(t *kernel.Task) {
	t0 := time.Now()
	m.Monitor.OnTaskStart(t)
	m.h[hookOther].add(t0)
}

// timedSink wraps the durable Store as the stream engine's sink, timing
// each record's trip into the durable layer and separating out the file
// syncs and checkpoint writes made on the way.
type timedSink struct {
	next stream.Sink
	l    *layers
}

func (s *timedSink) OnRecord(r stream.Record) {
	fs0 := s.l.fs.syncNS + s.l.fs.checkpointNS
	t0 := time.Now()
	s.next.OnRecord(r)
	s.l.sinkNS += int64(time.Since(t0))
	s.l.sinkFSNS += s.l.fs.syncNS + s.l.fs.checkpointNS - fs0
	s.l.records++
}

// fsStats counts the durable layer's filesystem traffic. WAL segments
// (*.seg) are the log; every other file, renames and directory syncs
// belong to checkpoint persistence.
type fsStats struct {
	syncs, syncNS      int64 // WAL fsyncs
	writes, writeBytes int64
	checkpoints        int64 // atomic renames
	checkpointNS       int64
}

// timedFS is a durable.FS that counts and times the calls made through it.
type timedFS struct {
	durable.FS
	s *fsStats
}

func isWAL(name string) bool { return strings.HasSuffix(filepath.Base(name), ".seg") }

func (f *timedFS) open(name string, file durable.File, err error, t0 time.Time) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	if !isWAL(name) {
		f.s.checkpointNS += int64(time.Since(t0))
	}
	return &timedFile{File: file, wal: isWAL(name), s: f.s}, nil
}

func (f *timedFS) Create(name string) (durable.File, error) {
	t0 := time.Now()
	file, err := f.FS.Create(name)
	return f.open(name, file, err, t0)
}

func (f *timedFS) OpenAppend(name string) (durable.File, error) {
	t0 := time.Now()
	file, err := f.FS.OpenAppend(name)
	return f.open(name, file, err, t0)
}

func (f *timedFS) Rename(oldname, newname string) error {
	t0 := time.Now()
	err := f.FS.Rename(oldname, newname)
	f.s.checkpoints++
	f.s.checkpointNS += int64(time.Since(t0))
	return err
}

func (f *timedFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := f.FS.SyncDir(dir)
	f.s.checkpointNS += int64(time.Since(t0))
	return err
}

type timedFile struct {
	durable.File
	wal bool
	s   *fsStats
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.s.writes++
	f.s.writeBytes += int64(n)
	if !f.wal {
		f.s.checkpointNS += int64(time.Since(t0))
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if f.wal {
		f.s.syncs++
		f.s.syncNS += int64(time.Since(t0))
	} else {
		f.s.checkpointNS += int64(time.Since(t0))
	}
	return err
}

func (f *timedFile) Close() error {
	t0 := time.Now()
	err := f.File.Close()
	if !f.wal {
		f.s.checkpointNS += int64(time.Since(t0))
	}
	return err
}

// layerMetrics reports a traced phase's per-layer metrics, each per run
// (per grid pass, stream session or cluster call). Layers a workload does
// not exercise, or that it cannot reach from outside the program, read 0.
func (p *phase) layerMetrics(res *result, jobs int) {
	l := p.tr
	n := float64(len(p.runs))
	per := func(v int64) float64 { return float64(v) / n }
	secs := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	simSelf := l.simNS - l.hookNS()
	res.set("sim.events", per(l.events), "count")
	res.set("sim.self_s", secs(simSelf), "s")
	res.set("sim.ns_per_event", ratio(float64(simSelf), float64(l.events)), "ns")

	names := [3]string{"core.on_interrupt", "core.on_switch", "core.other"}
	for i, h := range l.hooks {
		res.set(names[i]+".calls", per(h.calls), "count")
		res.set(names[i]+".s", secs(h.ns), "s")
	}
	res.set("core.hook_s", secs(l.hookNS()), "s")
	res.set("core.ns_per_hook", ratio(float64(l.hookNS()), float64(l.hookCalls())), "ns")

	res.set("server.requests", per(l.requests), "count")

	res.set("align.samples", per(l.alignSamples), "count")
	res.set("align.refits", per(l.refits), "count")
	res.set("align.rejected", per(l.rejected), "count")
	res.set("align.fallbacks", per(l.fallbacks), "count")
	res.set("align.accept_ratio", ratio(float64(l.alignSamples-l.rejected), float64(l.alignSamples)), "ratio")

	streamSelf := l.streamNS - l.sinkNS
	res.set("stream.ticks", per(l.ticks), "count")
	res.set("stream.records", per(l.records), "count")
	res.set("stream.self_s", secs(streamSelf), "s")
	res.set("stream.us_per_record", ratio(float64(streamSelf)/1e3, float64(l.records)), "us")
	res.set("stream.replay_ms", secs(l.replayNS)*1e3, "ms")

	res.set("durable.append_s", secs(l.sinkNS-l.sinkFSNS), "s")
	res.set("durable.sync_s", secs(l.fs.syncNS), "s")
	res.set("durable.syncs", per(l.fs.syncs), "count")
	res.set("durable.writes", per(l.fs.writes), "count")
	res.set("durable.write_bytes", per(l.fs.writeBytes), "bytes")
	res.set("durable.checkpoints", per(l.fs.checkpoints), "count")
	res.set("durable.checkpoint_s", secs(l.fs.checkpointNS), "s")
	res.set("durable.open_ms", secs(l.openNS)*1e3, "ms")
	res.set("durable.readback_ms", secs(l.readbackNS)*1e3, "ms")

	res.set("runner.cpu_util", sum(p.totals(cpuOf))/(sum(p.totals(wallOf))*float64(jobs)), "ratio")
	res.set("go.alloc_mb", float64(p.alloc1.TotalAlloc-p.alloc0.TotalAlloc)/(1<<20)/n, "MB")
	res.set("go.gc_cycles", float64(p.alloc1.NumGC-p.alloc0.NumGC)/n, "count")
}
