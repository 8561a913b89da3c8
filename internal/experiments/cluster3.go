package experiments

import (
	"fmt"

	"powercontainers/internal/cluster"
	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/power"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// Cluster3Result extends the paper's two-machine distribution case study
// (§4.4) to a three-tier heterogeneous cluster — SandyBridge, Westmere and
// Woodcrest — exercising the N-tier placement plan: both aware policies
// fill tiers in efficiency order; the workload-aware one additionally fills
// each tier in ascending affinity-ratio order.
type Cluster3Result struct {
	Policies []Fig14Policy
	// Affinity[app][node] is the profiled per-request energy (J) on each
	// node; ratios are vs node 0.
	Energy map[string][]float64
	// Savings of the workload-aware policy.
	SavingVsSimple       float64
	SavingVsMachineAware float64
}

func cluster3Specs() []cpu.MachineSpec {
	return []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere, cpu.Woodcrest}
}

func cluster3Workloads() map[string]workload.Workload {
	return map[string]workload.Workload{
		"GAE-Vosao":  workload.GAE{},
		"RSA-crypto": workload.RSA{},
	}
}

var cluster3AppNames = []string{"GAE-Vosao", "RSA-crypto"}

// Cluster3 runs the three-machine distribution experiment.
func Cluster3(seed uint64) (*Cluster3Result, error) {
	return Cluster3Ex(Exec{}, seed)
}

// Cluster3Ex runs the three-machine distribution experiment with explicit
// execution configuration. Profiling decomposes into one runner job per
// (workload, machine) cell; each policy run shards its three machines onto
// per-node engines (cluster.RunSharded), so the whole experiment uses the
// worker pool while rendering byte-identically at any Exec.Jobs.
func Cluster3Ex(ex Exec, seed uint64) (*Cluster3Result, error) {
	as := ex.Assembly
	specs := cluster3Specs()
	wls := cluster3Workloads()

	// Profiling: per-app mean request energy on every machine, one
	// independent job per cell.
	var plan runner.Plan
	for _, name := range cluster3AppNames {
		for _, spec := range specs {
			wl, spec := wls[name], spec
			plan.Add(fmt.Sprintf("cluster3/profile/%s/%s", wl.Name(), spec.Name), func() (any, error) {
				r, err := as.Run(spec, core.ApproachRecalibrated, RunSpec{Workload: wl, Load: PeakLoad}, seed)
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
					return nil, fmt.Errorf("cluster3 profiling: no %s requests on %s", wl.Name(), spec.Name)
				}
				return sum / float64(n), nil
			})
		}
	}
	cells, err := runner.Collect[float64](&plan, ex.Jobs)
	if err != nil {
		return nil, err
	}
	energy := map[string][]float64{}
	affinity := map[string]float64{}
	for ai, name := range cluster3AppNames {
		energy[name] = cells[ai*len(specs) : (ai+1)*len(specs) : (ai+1)*len(specs)]
		// Affinity ratio vs the least efficient tier (node 0 / last).
		e := energy[name]
		affinity[name] = e[0] / e[len(e)-1]
	}

	res := &Cluster3Result{Energy: energy}
	for _, pol := range []cluster.Policy{cluster.SimpleBalance, cluster.MachineAware, cluster.WorkloadAware} {
		p, err := cluster3Run(ex, pol, affinity, seed, false, 30*sim.Second, 5*sim.Second, 25*sim.Second)
		if err != nil {
			return nil, fmt.Errorf("cluster3 %s: %w", pol, err)
		}
		res.Policies = append(res.Policies, *p)
	}
	if simple := res.Policies[0].TotalW; simple > 0 {
		res.SavingVsSimple = 1 - res.Policies[2].TotalW/simple
	}
	if machine := res.Policies[1].TotalW; machine > 0 {
		res.SavingVsMachineAware = 1 - res.Policies[2].TotalW/machine
	}
	return res, nil
}

// cluster3Run executes one policy over the three-tier cluster through the
// plan/shard/merge pipeline: the dispatch plan is generated first against
// plan-only nodes, then each machine simulates its share on its own engine
// (or all on one shared engine when singleEngine is set — the reference
// mode the shard-equivalence regression test compares against).
func cluster3Run(ex Exec, pol cluster.Policy, affinity map[string]float64, seed uint64, singleEngine bool, until, t0, t1 sim.Time) (*Fig14Policy, error) {
	as := ex.Assembly
	specs := cluster3Specs()
	wls := cluster3Workloads()

	var apps []*cluster.App
	for _, name := range cluster3AppNames {
		apps = append(apps, &cluster.App{Name: name, AffinityRatio: affinity[name]})
	}

	var shared *sim.Engine
	if singleEngine {
		shared = sim.NewEngine()
	}
	var nodes []*cluster.ShardNode
	var planNodes []*cluster.Node
	var meters []*power.WattsupMeter
	var machines []*Machine
	deps := make([]map[string]*server.Deployment, len(specs))
	for i, spec := range specs {
		eng := shared
		if eng == nil {
			eng = sim.NewEngine()
		}
		m, err := as.NewMachineOnEngine(eng, spec, core.ApproachChipShare,
			runner.SeedFor(seed, "cluster3/node/"+spec.Name))
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
		deps[i] = map[string]*server.Deployment{}
		gens := map[string]*server.LoadGen{}
		reqs := map[string]func() *server.Request{}
		for _, name := range cluster3AppNames {
			dep := wls[name].Deploy(m.K, m.Rng.Fork(uint64(len(name))))
			deps[i][name] = dep
			gens[name] = server.NewLoadGen(m.K, m.Fac, dep)
			reqs[name] = dep.NewRequest
		}
		reserved := workload.GAEBackgroundCoreDemand(spec) / float64(spec.Cores())
		planNodes = append(planNodes, cluster.PlanNode(spec.Cores(), reserved))
		nodes = append(nodes, &cluster.ShardNode{
			Eng: eng, Name: m.K.Name(), Fac: m.Fac, Gens: gens, NewRequest: reqs,
		})
		meters = append(meters, m.Wattsup)
	}
	for _, app := range apps {
		for i := range specs {
			app.SvcSec = append(app.SvcSec, deps[i][app.Name].MeanServiceSec)
		}
	}

	// Offered volume: under simple balance every node takes a third of
	// each app's volume; the slow Woodcrest saturates first.
	wcAvail := float64(specs[2].Cores()) * (1 - planNodes[2].ReservedUtil)
	rates := map[string]float64{}
	for _, app := range apps {
		rates[app.Name] = 3.0 * 1.03 * wcAvail / app.SvcSec[2]
	}

	dplan := cluster.PlanOpenLoop(planNodes, apps, pol, nil, rates, until, sim.NewRand(seed*37))

	laud := as.collector().newAuditor(fmt.Sprintf("cluster3/%s", pol))
	var sink cluster.AuditSink
	if laud != nil {
		sink = laud
	}
	horizon := until + 3*sim.Second
	sres, err := cluster.RunSharded(cluster.ShardedRunConfig{
		Plan: dplan, Nodes: nodes, RunUntil: horizon, Jobs: ex.Jobs, LedgerAudit: sink,
	})
	if err != nil {
		return nil, err
	}

	for _, m := range machines {
		if err := m.FinalizeAudit(); err != nil {
			return nil, err
		}
	}
	if laud != nil {
		laud.CheckLedger(sres.Ledger, sres.Completed, horizon)
		if err := laud.Err(); err != nil {
			return nil, err
		}
	}

	out := &Fig14Policy{Policy: pol, RespMs: sres.ResponseTimes(), Dispatched: sres.PerApp}
	for i, meter := range meters {
		w, err := wattsupWindowMean(meter, machines[i].Eng.Now(), t0, t1)
		if err != nil {
			return nil, err
		}
		out.ActiveW = append(out.ActiveW, w)
		out.TotalW += w
	}
	return out, nil
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
