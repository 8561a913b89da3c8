package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"powercontainers/internal/calib"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
)

// benchWorkload is one benchmark workload. A run is one unit of user-visible
// work — a Fig. 8 grid pass, a durable stream session, a cluster3 call —
// made of operations whose latencies are recorded one by one.
type benchWorkload interface {
	describe() about
	// run performs one run, recording each operation on p.
	run(p *phase) runRec
	// reference computes the output digest every run must reproduce,
	// through a different path to the same output.
	reference() (string, error)
	// report adds the workload's own report lines.
	report(res *result, p *phase)
}

// about describes a workload to set-up and the report.
type about struct {
	machines []cpu.MachineSpec // machine models set-up calibrates and assembles
	output   string            // the digested output
	run, op  string            // what one run and one operation are
	jobs     int               // worker bound of a run
}

// runRec is one completed run.
type runRec struct {
	total       sample
	rest        sample  // total minus the run's operations
	simS        float64 // simulated machine-seconds
	ops, failed int
	digest      string
}

// sample is a timed span: host wall and process CPU seconds.
type sample struct{ wall, cpu float64 }

func wallOf(s sample) float64 { return s.wall }
func cpuOf(s sample) float64  { return s.cpu }

// stopwatch starts a span.
type stopwatch struct {
	t time.Time
	c time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

func (w stopwatch) read() sample {
	return sample{time.Since(w.t).Seconds(), (cpuTime() - w.c).Seconds()}
}

// phase is one measured mode of an invocation — untraced, or traced with
// the layer wrappers installed (tr != nil) — and the closed loop of runs
// it issued.
//
// Every run repeats the same sequence of operations, so the k-th
// operation of each run is one step. Per-run and per-operation figures
// are built from each step's median over the runs. A burst of host noise
// then has to hit the same step in most runs before it moves a figure.
type phase struct {
	tr    *layers
	runs  []runRec
	steps [][]sample // steps[k][r]: the k-th operation of run r
	next  int        // step index of the next operation in this run
	errs  []string

	alloc0, alloc1 runtime.MemStats
}

// loop issues runs back to back from a single caller, and stops where the
// total is expected to land nearest to budget; at least one run completes.
func (p *phase) loop(budget time.Duration, run func(*phase) runRec) {
	runtime.GC()
	runtime.ReadMemStats(&p.alloc0)
	start := time.Now()
	for {
		p.next = 0
		w := startWatch()
		r := run(p)
		r.total = w.read()
		r.rest = r.total
		for _, st := range p.steps[:p.next] {
			op := st[len(st)-1]
			r.rest.wall -= op.wall
			r.rest.cpu -= op.cpu
		}
		p.runs = append(p.runs, r)
		el := time.Since(start)
		if el+el/time.Duration(2*len(p.runs)) > budget {
			break
		}
	}
	runtime.ReadMemStats(&p.alloc1)
}

// op records the current run's next operation.
func (p *phase) op(s sample) {
	if p.next == len(p.steps) {
		p.steps = append(p.steps, nil)
	}
	p.steps[p.next] = append(p.steps[p.next], s)
	p.next++
}

// stepMedians is each step's median over the runs.
func (p *phase) stepMedians(f func(sample) float64) []float64 {
	out := make([]float64, len(p.steps))
	for k, st := range p.steps {
		out[k] = median(clock(st, f))
	}
	return out
}

// perRun is the median run, rebuilt step by step: the sum of the step
// medians plus the median of what the runs spent outside operations.
func (p *phase) perRun(f func(sample) float64) float64 {
	rest := make([]float64, len(p.runs))
	for i, r := range p.runs {
		rest[i] = f(r.rest)
	}
	return sum(p.stepMedians(f)) + median(rest)
}

// opQuantile is the q-quantile of the per-step median latencies, in ms.
func (p *phase) opQuantile(f func(sample) float64, q float64) float64 {
	return 1e3 * quantile(p.stepMedians(f), q)
}

// fail records why an operation failed; the first few reasons are kept.
func (p *phase) fail(format string, a ...any) {
	if len(p.errs) < 8 {
		p.errs = append(p.errs, fmt.Sprintf(format, a...))
	}
}

// check fails every operation of a run whose output differs from ref.
func (p *phase) check(ref string) {
	for i := range p.runs {
		if r := &p.runs[i]; r.digest != ref {
			p.fail("%s run %d: output sha256 %s, reference %s", p.mode(), i, r.digest, ref)
			r.failed = r.ops
		}
	}
}

func (p *phase) mode() string {
	if p.tr != nil {
		return "traced"
	}
	return "untraced"
}

// digest is the output digest shared by every run, or "mixed".
func (p *phase) digest() string {
	d := p.runs[0].digest
	for _, r := range p.runs[1:] {
		if r.digest != d {
			return "mixed"
		}
	}
	return d
}

func (p *phase) attempted() (n int) {
	for _, r := range p.runs {
		n += r.ops
	}
	return n
}

func (p *phase) failed() (n int) {
	for _, r := range p.runs {
		n += r.failed
	}
	return n
}

// totals lists each run's whole span.
func (p *phase) totals(f func(sample) float64) []float64 {
	out := make([]float64, len(p.runs))
	for i, r := range p.runs {
		out[i] = f(r.total)
	}
	return out
}

func (p *phase) simS() (s float64) {
	for _, r := range p.runs {
		s += r.simS
	}
	return s
}

// measureSetup times set-up n times: calibration of every machine model
// plus one machine assembly each. The first sample fills the process's
// calibration cache through experiments.CalibrationFor, as every program
// entry point does; later samples recalibrate from scratch and must
// reproduce the cached result. It returns the total and the calibration
// part of each sample.
func measureSetup(specs []cpu.MachineSpec, seed uint64, n int) (total, calibS []sample, err error) {
	as := experiments.Assembly{Audit: experiments.NewAuditCollector(false)}
	for i := 0; i < n; i++ {
		w := startWatch()
		for _, spec := range specs {
			cached, err := experiments.CalibrationFor(spec)
			if err != nil {
				return nil, nil, err
			}
			if i == 0 {
				continue
			}
			fresh, err := calib.Calibrate(spec, calib.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			if fresh.Eq1 != cached.Eq1 || fresh.Eq2 != cached.Eq2 || fresh.IdleW != cached.IdleW {
				return nil, nil, fmt.Errorf("calibration of %s is not reproducible", spec.Name)
			}
		}
		calibS = append(calibS, w.read())
		for _, spec := range specs {
			if _, err := as.NewMachine(spec, core.ApproachRecalibrated, seed); err != nil {
				return nil, nil, err
			}
		}
		total = append(total, w.read())
	}
	return total, calibS, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSample is a reading of host-wide noise counters.
type hostSample struct{ stealS float64 }

// readHost reads the steal time of all CPUs from /proc/stat (USER_HZ is
// 100 on Linux); it reads zero where the file is unavailable.
func readHost() hostSample {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostSample{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			steal, _ := strconv.ParseFloat(fields[8], 64)
			return hostSample{stealS: steal / 100}
		}
	}
	return hostSample{}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// clock reads one clock off each sample.
func clock(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func sum(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
