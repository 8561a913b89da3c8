// Command perfbench is the end-to-end benchmark of the power-containers
// simulator. It runs one workload per invocation — validate (the Fig. 8
// accuracy grid), stream (a durable pcstream session) or cluster (the
// three-machine cluster3 experiment) — as a closed loop with a single
// caller, checks every output against the program's own entry points, and
// prints a human-readable report followed by one JSON result line.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload validate --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics together
// with the tracing overhead. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	// seconds is the measurement budget: runs are issued back to back
	// until their total is expected to land nearest to it, and at least
	// one run always completes.
	seconds float64
	trace   bool
	// workdir holds the stream workload's WAL directories.
	workdir string
	// small shrinks validate and stream to a few seconds of work, and
	// set-up to two measurements, for the smoke test; cluster3 has no
	// size to shrink.
	small bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: validate, stream or cluster")
	seed := fs.Uint64("seed", 1, "simulation seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in host seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for the stream workload's WAL")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds < 0 {
		return fmt.Errorf("--seconds must not be negative")
	}
	// The audit layer would hold the engine's Probe slot and slow every
	// machine down; the benchmark measures the production configuration.
	switch os.Getenv("PC_AUDIT") {
	case "", "0", "false", "off":
	default:
		return fmt.Errorf("PC_AUDIT must be unset")
	}
	res, err := benchmark(config{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir,
	})
	if err != nil {
		return err
	}
	return res.write(stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// lines is the human-readable report printed before the JSON line:
	// host noise, digests, and the report-only metrics that
	// BENCHMARK.json does not track.
	lines []string
	// digest is the reference output digest every run was checked
	// against.
	digest string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) printf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

func (r *result) write(w io.Writer) error {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	js, err := json.Marshal(r)
	if err != nil {
		return err
	}
	b.Write(js)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// benchmark runs one workload end to end: set-up, the untraced closed
// loop, the traced one when asked, and the output checks.
func benchmark(cfg config) (*result, error) {
	var w benchWorkload
	switch cfg.workload {
	case "validate":
		w = newValidate(cfg)
	case "stream":
		w = newStream(cfg)
	case "cluster":
		w = newCluster(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want validate, stream or cluster)", cfg.workload)
	}
	a := w.describe()
	host0 := readHost()
	res := &result{Metrics: map[string]metric{}}
	res.printf("perfbench %s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	// setup_s is the median of three set-ups; the smoke test takes two,
	// which still checks once that recalibration reproduces the cache.
	setups := 3
	if cfg.small {
		setups = 2
	}
	setup, calibS, err := measureSetup(a.machines, cfg.seed, setups)
	if err != nil {
		return nil, err
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	plain := &phase{}
	plain.loop(budget, w.run)
	hwm := peakRSSMB()
	var traced *phase
	if cfg.trace {
		traced = &phase{tr: &layers{}}
		traced.loop(budget, w.run)
	}
	ref, err := w.reference()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	host1 := readHost()
	res.digest = ref

	phases := []*phase{plain}
	if traced != nil {
		phases = append(phases, traced)
	}
	for _, p := range phases {
		p.check(ref)
		res.Attempted += p.attempted()
		res.Failed += p.failed()
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", e)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	steal := host1.stealS - host0.stealS
	res.printf("host: nproc=%d gomaxprocs=%d go=%s steal_s=%.3f", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal)
	res.printf("digest %s reference sha256=%s", a.output, ref)
	for _, p := range phases {
		res.printf("digest %s %s sha256=%s runs=%d", a.output, p.mode(), p.digest(), len(p.runs))
	}
	res.printf("fail_ratio %g (%d/%d operations)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	if !cfg.trace {
		// Most tracked times are process CPU time. It leaves out the time
		// the hypervisor steals, which on a shared host moves wall time by
		// more than a bound could allow. op_wall_p50_ms is the one wall
		// figure: a median step repeats well enough, and it holds what CPU
		// time cannot see, such as a stream tick's wait for fsync.
		res.set("setup_s", median(clock(setup, cpuOf)), "s")
		res.set("cpu_s_per_run", plain.perRun(cpuOf), "s")
		res.set("op_cpu_p50_ms", plain.opQuantile(cpuOf, 0.50), "ms")
		res.set("op_cpu_p95_ms", plain.opQuantile(cpuOf, 0.95), "ms")
		res.set("op_wall_p50_ms", plain.opQuantile(wallOf, 0.50), "ms")
		res.set("peak_rss_mb", hwm, "MB")
		res.printf("setup_s %.4f s CPU (wall %.4f s), median of %d", median(clock(setup, cpuOf)), median(clock(setup, wallOf)), len(setup))
		res.printf("cpu_s_per_run %.4f s, wall_s_per_run %.4f s (step medians over %d runs, a run being one %s; whole runs CPU %.3f s, wall %.3f s)",
			plain.perRun(cpuOf), plain.perRun(wallOf), len(plain.runs), a.run, plain.totals(cpuOf), plain.totals(wallOf))
		res.printf("op_cpu_p50_ms %.4f ms, op_cpu_p95_ms %.4f ms, op_wall_p50_ms %.4f ms, op_wall_p95_ms %.4f ms (step medians; %d steps of one %s per run)",
			plain.opQuantile(cpuOf, 0.5), plain.opQuantile(cpuOf, 0.95), plain.opQuantile(wallOf, 0.5), plain.opQuantile(wallOf, 0.95), len(plain.steps), a.op)
		res.printf("peak_rss_mb %.1f MB", hwm)
		if s := plain.simS() / float64(len(plain.runs)); s > 0 {
			res.printf("sim_s_per_wall_s %.2f, sim_s_per_cpu_s %.2f (%.0f simulated machine-seconds per run)",
				s/plain.perRun(wallOf), s/plain.perRun(cpuOf), s)
		}
		w.report(res, plain)
		return res, nil
	}

	res.set("calib.s", median(clock(calibS, cpuOf)), "s")
	res.set("host.steal_s", steal, "s")
	res.set("host.nproc", float64(runtime.NumCPU()), "count")
	res.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	// The overhead is taken in CPU time for the reason the tracked
	// metrics are; the wall-time figures are printed beside it.
	tc, pc := traced.perRun(cpuOf), plain.perRun(cpuOf)
	res.set("trace.untraced_cpu_s_per_run", pc, "s")
	res.set("trace.traced_cpu_s_per_run", tc, "s")
	res.set("trace.overhead_pct", 100*(tc/pc-1), "%")
	res.printf("trace overhead: CPU untraced %.4f s/run, traced %.4f s/run, %+.1f%%; wall untraced %.4f s/run, traced %.4f s/run",
		pc, tc, 100*(tc/pc-1), plain.perRun(wallOf), traced.perRun(wallOf))
	traced.layerMetrics(res, a.jobs)
	return res, nil
}
