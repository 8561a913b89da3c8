package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"powercontainers"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with the current renderings")

// checkGolden compares a rendering against its checked-in golden file.
// The renderings are pure functions of the seed, so any diff means either
// a deliberate output change (regenerate with -update) or a determinism
// regression.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./cmd/pcbench -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendering diverged from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestFig8RenderingGolden locks the text rendering of a trimmed Figure 8
// grid (one machine, two workloads — the same slice the ordering test
// exercises) at seed 1.
func TestFig8RenderingGolden(t *testing.T) {
	r, err := experiments.Fig8(experiments.Fig8Options{
		Machines:  []cpu.MachineSpec{cpu.SandyBridge},
		Workloads: []workload.Workload{workload.Stress{}, workload.GAE{VirusLoadFraction: 0.5}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8_sandybridge.golden", r.Render())
}

// TestTable1RenderingGolden locks the full table1/fig14 rendering — the
// heterogeneity-aware request distribution comparison — at seed 1, going
// through the same RunExperiment entry point the pcbench binary uses.
func TestTable1RenderingGolden(t *testing.T) {
	out, err := powercontainers.RunExperiment("table1", 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.golden", out)
}

// TestCluster3RenderingGolden locks the three-tier cluster rendering at
// seed 1 through the pcbench entry point, so any change to how a policy
// run executes must reproduce it byte for byte.
func TestCluster3RenderingGolden(t *testing.T) {
	out, err := powercontainers.RunExperiment("cluster3", 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster3.golden", out)
}
