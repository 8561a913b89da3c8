package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// contract is the part of BENCHMARK.json the program must honour.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each declared metric is emitted with its unit, that no
// operation fails, and that both calls produce the same output digest.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	for _, wl := range []string{"validate", "stream", "cluster"} {
		t.Run(wl, func(t *testing.T) {
			var digests []string
			for _, trace := range []bool{false, true} {
				res, err := benchmark(config{workload: wl, seed: 1, trace: trace, workdir: t.TempDir(), small: true})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
					t.Errorf("trace=%v: %d of %d operations failed", trace, res.Failed, res.Attempted)
				}
				want := c.EndToEnd
				if trace {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, contract declares %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				digests = append(digests, res.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("output digests differ across calls: %v", digests)
			}
		})
	}
}

// TestStreamMatchesPcstream checks that the stream workload's durable
// stream is byte-identical to what `pcstream -dir` prints for the same
// flags and seed.
func TestStreamMatchesPcstream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/pcstream")
	}
	res, err := benchmark(config{workload: "stream", seed: 1, workdir: t.TempDir(), small: true})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "powercontainers/cmd/pcstream",
		"-dir", filepath.Join(t.TempDir(), "wal"), "-machine", "SandyBridge", "-workload", "GAE-Vosao",
		"-load", "0.5", "-attribution", "recalibrated", "-tick", "100", "-duration", "3", "-seed", "1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("pcstream: %v", err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != res.digest {
		t.Errorf("pcstream -dir stream sha256 %s, benchmark %s", got, res.digest)
	}
}
