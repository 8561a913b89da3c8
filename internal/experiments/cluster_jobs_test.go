package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// fingerprintPolicy serializes a policy run's full numeric state at bit
// precision: any ulp-level divergence between worker counts shows up as a
// fingerprint mismatch, not a rounding-hidden near-miss.
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

// TestClusterRunsIdenticalAtAnyJobs pins that the distribution
// experiments, whose profiling cells fan out as runner jobs and whose
// machines simulate in parallel within each policy run, produce
// bit-identical policy outcomes and byte-identical renderings at any
// worker count.
func TestClusterRunsIdenticalAtAnyJobs(t *testing.T) {
	cases := []struct {
		name string
		run  func(ex Exec) ([]Fig14Policy, string, error)
	}{
		{"cluster3", func(ex Exec) ([]Fig14Policy, string, error) {
			r, err := Cluster3Ex(ex, 1)
			if err != nil {
				return nil, "", err
			}
			return r.Policies, r.Render(), nil
		}},
		{"fig14", func(ex Exec) ([]Fig14Policy, string, error) {
			r, err := Fig14Ex(ex, 1)
			if err != nil {
				return nil, "", err
			}
			return r.Policies, r.Render(), nil
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var refPrint, refRender string
			for _, jobs := range []int{1, 4, 16} {
				pols, render, err := tc.run(NewRunExec(jobs))
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				var b strings.Builder
				for i := range pols {
					b.WriteString(fingerprintPolicy(&pols[i]))
				}
				if jobs == 1 {
					refPrint, refRender = b.String(), render
					continue
				}
				if got := b.String(); got != refPrint {
					t.Errorf("jobs=%d policy fingerprints diverged from jobs=1:\n--- got ---\n%s--- want ---\n%s", jobs, got, refPrint)
				}
				if render != refRender {
					t.Errorf("jobs=%d rendering diverged from jobs=1:\n--- got ---\n%s\n--- want ---\n%s", jobs, render, refRender)
				}
			}
		})
	}
}
