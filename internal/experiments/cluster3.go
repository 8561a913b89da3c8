package experiments

import (
	"fmt"

	"powercontainers/internal/cpu"
	"powercontainers/internal/runner"
)

// Cluster3Result extends the paper's two-machine distribution case study
// (§4.4) to a three-tier heterogeneous cluster — SandyBridge, Westmere and
// Woodcrest — exercising the N-tier placement plan: both aware policies
// fill tiers in efficiency order; the workload-aware one additionally fills
// each tier in ascending affinity-ratio order.
type Cluster3Result struct {
	Policies []Fig14Policy
	// Energy[app][node] is the profiled per-request energy (J) on each
	// node; affinity ratios are node 0 over the last node.
	Energy map[string][]float64
	// Savings of the workload-aware policy.
	SavingVsSimple       float64
	SavingVsMachineAware float64
}

func cluster3Specs() []cpu.MachineSpec {
	return []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere, cpu.Woodcrest}
}

// cluster3Setup is the three-tier cluster. Each node draws requests from
// its own deployment stream, and under simple balance every node takes a
// third of each app's volume.
func cluster3Setup(seed uint64) clusterSetup {
	s := clusterSetup{name: "cluster3", dispatchSeed: seed * 37, volume: 3}
	for _, spec := range cluster3Specs() {
		s.nodes = append(s.nodes, clusterNode{spec: spec, machineSeed: runner.SeedFor(seed, "cluster3/node/"+spec.Name)})
	}
	return s
}

// Cluster3 runs the three-machine distribution experiment.
func Cluster3(seed uint64) (*Cluster3Result, error) {
	return Cluster3Ex(Exec{}, seed)
}

// Cluster3Ex runs the three-machine distribution experiment with explicit
// execution configuration: the profiling cells and, within each policy
// run, the machines use up to ex.Jobs workers, and the result renders
// byte-identically at any value.
func Cluster3Ex(ex Exec, seed uint64) (*Cluster3Result, error) {
	energy, pols, err := cluster3Setup(seed).run(ex, seed)
	if err != nil {
		return nil, err
	}
	res := &Cluster3Result{Policies: pols, Energy: energy}
	res.SavingVsSimple, res.SavingVsMachineAware = policySavings(pols)
	return res, nil
}

// Render prints the three-tier results.
func (r *Cluster3Result) Render() string {
	specs := cluster3Specs()
	t := &Table{
		Title:  "Three-tier cluster (extension): energy usage rate under the three policies",
		Header: []string{"policy", specs[0].Name, specs[1].Name, specs[2].Name, "combined", "GAE ms", "RSA ms"},
		Caption: fmt.Sprintf("workload-aware saves %s vs simple balance and %s vs machine-aware",
			pct(r.SavingVsSimple), pct(r.SavingVsMachineAware)),
	}
	for _, p := range r.Policies {
		t.AddRow(p.Policy.String(), w1(p.ActiveW[0]), w1(p.ActiveW[1]), w1(p.ActiveW[2]), w1(p.TotalW),
			fmt.Sprintf("%.0f", p.RespMs["GAE-Vosao"]), fmt.Sprintf("%.0f", p.RespMs["RSA-crypto"]))
	}
	t2 := &Table{
		Title:  "profiled per-request energy (J)",
		Header: []string{"app", specs[0].Name, specs[1].Name, specs[2].Name},
	}
	for _, app := range SortedKeys(r.Energy) {
		e := r.Energy[app]
		t2.AddRow(app, j2(e[0]), j2(e[1]), j2(e[2]))
	}
	return t.String() + "\n" + t2.String()
}
