package experiments

import (
	"fmt"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Fig14Policy is one distribution policy's outcome.
type Fig14Policy struct {
	Policy cluster.Policy
	// ActiveW[node] is each machine's measured active power over the
	// window, in the cluster's efficiency order (node 0 = SandyBridge);
	// TotalW is the combined active energy usage rate of Figure 14.
	ActiveW []float64
	TotalW  float64
	// RespMs[app] is the mean response time (Table 1).
	RespMs map[string]float64
	// Dispatched[node][app] counts placements.
	Dispatched []map[string]int
}

// Fig14Result reproduces Figure 14 and Table 1: energy usage rate and mean
// response times of a combined GAE-Vosao + RSA-crypto workload on a
// two-machine heterogeneous cluster under the three distribution policies.
type Fig14Result struct {
	Policies []Fig14Policy
	// AffinityGAE and AffinityRSA are the container-profiled
	// cross-machine energy ratios the workload-aware policy used.
	AffinityGAE, AffinityRSA float64
	// SavingVsSimple and SavingVsMachineAware are the workload-aware
	// policy's combined-energy savings.
	SavingVsSimple       float64
	SavingVsMachineAware float64
}

// fig14Specs returns the cluster machines: the newer SandyBridge first.
func fig14Specs() []cpu.MachineSpec {
	return []cpu.MachineSpec{cpu.SandyBridge, cpu.Woodcrest}
}

// fig14Setup is the two-machine cluster of Figure 14. Every node draws
// its requests from node 0's deployment stream.
func fig14Setup(seed uint64) clusterSetup {
	s := clusterSetup{name: "fig14", dispatchSeed: seed * 31, volume: 1, sharedFactories: true}
	for i, spec := range fig14Specs() {
		s.nodes = append(s.nodes, clusterNode{spec: spec, machineSeed: seed + uint64(i)*17})
	}
	return s
}

// Fig14 runs the cluster experiment.
func Fig14(seed uint64) (*Fig14Result, error) {
	return Fig14Ex(Exec{}, seed)
}

// Fig14Ex runs the cluster experiment with explicit execution
// configuration: the profiling cells and, within each policy run, the
// machines use up to ex.Jobs workers, and the result is byte-identical at
// any value.
func Fig14Ex(ex Exec, seed uint64) (*Fig14Result, error) {
	energy, pols, err := fig14Setup(seed).run(ex, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{
		Policies:    pols,
		AffinityGAE: affinityRatio(energy["GAE-Vosao"]),
		AffinityRSA: affinityRatio(energy["RSA-crypto"]),
	}
	res.SavingVsSimple, res.SavingVsMachineAware = policySavings(pols)
	return res, nil
}

// clusterApps are the applications every distribution experiment hosts on
// every node, in dispatch-setup order.
var clusterApps = []workload.Workload{workload.GAE{}, workload.RSA{}}

// clusterSetup is the per-experiment data of a request-distribution run.
// Everything else (profiling, deployment, offered volume, measurement) is
// shared by fig14 and cluster3.
type clusterSetup struct {
	// name prefixes runner job keys, ledger auditor labels and error
	// messages.
	name string
	// nodes lists the machines in efficiency order: node 0 is the most
	// energy-efficient, the last node the weakest.
	nodes []clusterNode
	// dispatchSeed seeds the dispatcher's arrival and placement streams.
	dispatchSeed uint64
	// volume scales every app's offered rate, in units of what keeps the
	// weakest machine's free cores 1.03× busy with that app alone.
	volume float64
	// sharedFactories makes every node draw requests from node 0's
	// deployment stream instead of its own.
	sharedFactories bool
}

// clusterNode is one machine of a distribution experiment.
type clusterNode struct {
	spec        cpu.MachineSpec
	machineSeed uint64
}

// run profiles every app on every machine, then runs the three policies in
// turn. The profiling cells fan out as runner jobs; within a policy run the
// machines simulate in parallel (cluster.Dispatcher.Run). One policy at a
// time keeps peak memory at one cluster's worth. energy[app][node] is the
// profiled mean per-request energy (J).
func (s clusterSetup) run(ex Exec, seed uint64) (energy map[string][]float64, pols []Fig14Policy, err error) {
	energy, err = s.profile(ex, seed)
	if err != nil {
		return nil, nil, err
	}
	affinity := map[string]float64{}
	for _, wl := range clusterApps {
		affinity[wl.Name()] = affinityRatio(energy[wl.Name()])
	}
	for _, pol := range []cluster.Policy{cluster.SimpleBalance, cluster.MachineAware, cluster.WorkloadAware} {
		p, err := s.runPolicy(ex, pol, affinity)
		if err != nil {
			return nil, nil, fmt.Errorf("%s %s: %w", s.name, pol, err)
		}
		pols = append(pols, p)
	}
	return energy, pols, nil
}

// profile measures each app's mean per-request energy on every machine at
// peak load, one runner job per (app, machine) cell. Container energy
// profiles are what give each app its cross-machine affinity (§3.4).
func (s clusterSetup) profile(ex Exec, seed uint64) (map[string][]float64, error) {
	var plan runner.Plan
	for _, wl := range clusterApps {
		for _, node := range s.nodes {
			wl, spec := wl, node.spec
			plan.Add(fmt.Sprintf("%s/profile/%s/%s", s.name, wl.Name(), spec.Name), func() (any, error) {
				r, err := ex.Assembly.Run(spec, core.ApproachRecalibrated, RunSpec{Workload: wl, Load: PeakLoad}, seed)
				if err != nil {
					return nil, err
				}
				var sum float64
				n := 0
				for _, req := range r.Gen.Completed() {
					if req.Finished() && req.Done >= r.T0 && req.Done < r.T1 {
						sum += req.Cont.EnergyJ()
						n++
					}
				}
				if n == 0 {
					return nil, fmt.Errorf("%s profiling: no %s requests on %s", s.name, wl.Name(), spec.Name)
				}
				return sum / float64(n), nil
			})
		}
	}
	cells, err := runner.Collect[float64](&plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	n := len(s.nodes)
	energy := map[string][]float64{}
	for ai, wl := range clusterApps {
		energy[wl.Name()] = cells[ai*n : (ai+1)*n : (ai+1)*n]
	}
	return energy, nil
}

// affinityRatio is an app's cross-machine energy ratio: its per-request
// energy on the most efficient machine over that on the weakest.
func affinityRatio(energy []float64) float64 {
	return energy[0] / energy[len(energy)-1]
}

// policySavings returns the workload-aware policy's combined-energy savings
// against simple balance and against the machine-aware policy.
func policySavings(pols []Fig14Policy) (vsSimple, vsMachineAware float64) {
	aware := pols[2].TotalW
	if simple := pols[0].TotalW; simple > 0 {
		vsSimple = 1 - aware/simple
	}
	if machine := pols[1].TotalW; machine > 0 {
		vsMachineAware = 1 - aware/machine
	}
	return vsSimple, vsMachineAware
}

// runPolicy runs one distribution policy over the live dispatcher: it
// places each arrival, tags it with a container, and folds the executing
// machine's statistics back into its ledger. The dispatcher and every
// machine have their own engines, so the machines simulate in parallel on
// up to ex.Jobs workers.
func (s clusterSetup) runPolicy(ex Exec, pol cluster.Policy, affinity map[string]float64) (Fig14Policy, error) {
	as := ex.Assembly
	out := Fig14Policy{Policy: pol}
	var apps []*cluster.App
	wls := map[string]workload.Workload{}
	for _, wl := range clusterApps {
		apps = append(apps, &cluster.App{Name: wl.Name(), AffinityRatio: affinity[wl.Name()]})
		wls[wl.Name()] = wl
	}

	var nodes []*cluster.Node
	var machines []*Machine
	for i, cn := range s.nodes {
		spec := cn.spec
		m, err := as.NewMachine(spec, core.ApproachChipShare, cn.machineSeed)
		if err != nil {
			return out, err
		}
		node := cluster.NewNode(m.K, m.Fac, apps, func(app *cluster.App, k *kernel.Kernel) *server.Deployment {
			return wls[app.Name].Deploy(k, m.Rng.Fork(uint64(len(app.Name))))
		})
		// GAE's background processing permanently occupies part of the
		// node; the dispatcher must plan around it.
		node.ReservedUtil = workload.GAEBackgroundCoreDemand(spec) / float64(spec.Cores())
		if s.sharedFactories && i > 0 {
			node.NewRequest = nodes[0].NewRequest
		}
		nodes = append(nodes, node)
		machines = append(machines, m)
	}
	for _, app := range apps {
		for _, node := range nodes {
			app.SvcSec = append(app.SvcSec, node.Gens[app.Name].Dep.MeanServiceSec)
		}
	}

	d := cluster.NewDispatcher(sim.NewEngine(), nodes, apps, pol)
	laud := as.collector().newAuditor(fmt.Sprintf("%s/%s", s.name, pol))
	if laud != nil {
		d.Ledger.Audit = laud
	}

	// Offered volume: the weakest machine saturates first under simple
	// balance, so each app's rate is sized against its free capacity,
	// after what its standing background processing consumes.
	last := len(nodes) - 1
	avail := float64(s.nodes[last].spec.Cores()) * (1 - nodes[last].ReservedUtil)
	rates := map[string]float64{}
	for _, app := range apps {
		rates[app.Name] = s.volume * 1.03 * avail / app.SvcSec[last]
	}

	const (
		until   = 30 * sim.Second
		horizon = until + 3*sim.Second
		t0      = 5 * sim.Second
		t1      = 25 * sim.Second
	)
	d.RunOpenLoop(rates, until, sim.NewRand(s.dispatchSeed))
	if err := d.Run(horizon, ex.Jobs); err != nil {
		return out, err
	}

	for _, m := range machines {
		if err := m.FinalizeAudit(); err != nil {
			return out, err
		}
	}
	if laud != nil {
		laud.CheckLedger(d.Ledger, d.Completed(), horizon)
		if err := laud.Err(); err != nil {
			return out, err
		}
	}

	out.RespMs, out.Dispatched = d.ResponseTimes(), d.DispatchCounts()
	for _, m := range machines {
		w, err := wattsupWindowMean(m.Wattsup, horizon, t0, t1)
		if err != nil {
			return out, err
		}
		out.ActiveW = append(out.ActiveW, w)
		out.TotalW += w
	}
	return out, nil
}

// Render prints Figure 14 and Table 1.
func (r *Fig14Result) Render() string {
	t := &Table{
		Title:  "Figure 14: active energy usage rate under three request distribution policies",
		Header: []string{"policy", "SandyBridge", "Woodcrest", "combined"},
		Caption: fmt.Sprintf("workload-aware saves %s vs simple balance and %s vs machine-aware\n"+
			"(paper: 30%% and 25%%); profiled affinity ratios: GAE %.2f, RSA %.2f",
			pct(r.SavingVsSimple), pct(r.SavingVsMachineAware), r.AffinityGAE, r.AffinityRSA),
	}
	for _, p := range r.Policies {
		t.AddRow(p.Policy.String(), w1(p.ActiveW[0]), w1(p.ActiveW[1]), w1(p.TotalW))
	}
	out := t.String()

	t2 := &Table{
		Title:  "Table 1: average request response time under the three policies",
		Header: []string{"policy", "GAE-Vosao", "RSA-crypto"},
		Caption: "paper: simple balance 537/1728 ms, machine-aware 159/66 ms,\n" +
			"workload-aware 131/50 ms",
	}
	for _, p := range r.Policies {
		t2.AddRow(p.Policy.String(),
			fmt.Sprintf("%.0f ms", p.RespMs["GAE-Vosao"]),
			fmt.Sprintf("%.0f ms", p.RespMs["RSA-crypto"]))
	}
	t3 := &Table{
		Title:  "request placement (diagnostic)",
		Header: []string{"policy", "node", "GAE-Vosao", "RSA-crypto"},
	}
	for _, p := range r.Policies {
		for node, counts := range p.Dispatched {
			name := fig14Specs()[node].Name
			t3.AddRow(p.Policy.String(), name,
				fmt.Sprintf("%d", counts["GAE-Vosao"]), fmt.Sprintf("%d", counts["RSA-crypto"]))
		}
	}
	return out + "\n" + t2.String() + "\n" + t3.String()
}
