package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"powercontainers/internal/cluster"
	"powercontainers/internal/sim"
)

// fingerprintPolicy serializes a policy run's full numeric state at bit
// precision: any ulp-level divergence between execution modes shows up as
// a fingerprint mismatch, not a rounding-hidden near-miss.
func fingerprintPolicy(p *Fig14Policy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%d\n", int(p.Policy))
	var apps []string
	for app := range p.RespMs {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		fmt.Fprintf(&b, "resp[%s]=%016x\n", app, math.Float64bits(p.RespMs[app]))
	}
	for i, w := range p.ActiveW {
		fmt.Fprintf(&b, "active[%d]=%016x\n", i, math.Float64bits(w))
	}
	fmt.Fprintf(&b, "total=%016x\n", math.Float64bits(p.TotalW))
	for node, counts := range p.Dispatched {
		var names []string
		for app := range counts {
			names = append(names, app)
		}
		sort.Strings(names)
		for _, app := range names {
			fmt.Fprintf(&b, "dispatched[%d][%s]=%d\n", node, app, counts[app])
		}
	}
	return b.String()
}

// TestCluster3ShardedMatchesSingleEngine pins the sharding soundness
// argument: running each cluster machine on its own engine (merged by the
// seeded (done time, request id) order) is bit-identical to running all
// three on one shared timeline with the same pre-scheduled dispatch plan —
// and the sharded result is byte-identical at any worker count.
func TestCluster3ShardedMatchesSingleEngine(t *testing.T) {
	affinity := map[string]float64{"GAE-Vosao": 0.55, "RSA-crypto": 0.80}
	const (
		until = 10 * sim.Second
		t0    = 2 * sim.Second
		t1    = 8 * sim.Second
	)
	run := func(jobs int, singleEngine bool) string {
		t.Helper()
		p, err := cluster3Run(NewRunExec(jobs), cluster.WorkloadAware, affinity, 1, singleEngine, until, t0, t1)
		if err != nil {
			t.Fatalf("jobs=%d singleEngine=%v: %v", jobs, singleEngine, err)
		}
		return fingerprintPolicy(p)
	}
	ref := run(1, true)
	for _, jobs := range []int{1, 4, 16} {
		if got := run(jobs, false); got != ref {
			t.Errorf("sharded run at jobs=%d diverged from single-engine reference:\n--- sharded ---\n%s--- reference ---\n%s", jobs, got, ref)
		}
	}
}
