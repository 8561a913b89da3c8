package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/kernel"
	"powercontainers/internal/model"
	"powercontainers/internal/power"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

var quadSpec = cpu.MachineSpec{
	Name: "Quad", Chips: 1, CoresPerChip: 4, FreqHz: 1e9, DutyLevels: 8,
}

var testProfile = power.TrueProfile{
	MachineIdleW: 40, PkgIdleW: 2, ChipMaintW: 5,
	CoreW: 8, InsW: 2, DiskW: 1.7, NetW: 5.8,
}

// echoApp builds an App served by a fixed-burst deployment on every node.
func echoApp(name string, burst float64, affinity float64) (*App, func(*App, *kernel.Kernel) *server.Deployment) {
	deploy := func(app *App, k *kernel.Kernel) *server.Deployment {
		entry := kernel.NewListener(name)
		pool := server.NewEntryPool(k, name, 8, entry, func(int) server.Handler {
			return func(k *kernel.Kernel, t *kernel.Task, payload any) []kernel.Op {
				return []kernel.Op{kernel.OpCompute{BaseCycles: burst, Act: cpu.Activity{IPC: 1}}}
			}
		})
		return &server.Deployment{
			Entry:          entry,
			NewRequest:     func() *server.Request { return &server.Request{Type: name} },
			MeanServiceSec: burst / 1e9,
			Pools:          []*server.Pool{pool},
		}
	}
	return &App{Name: name, AffinityRatio: affinity}, deploy
}

func newCluster(t *testing.T, policy Policy, apps []*App,
	deploys map[string]func(*App, *kernel.Kernel) *server.Deployment) (*sim.Engine, *Dispatcher) {
	t.Helper()
	eng := sim.NewEngine()
	var nodes []*Node
	for i := 0; i < 2; i++ {
		k, err := kernel.New("n", quadSpec, testProfile, eng, nil)
		if err != nil {
			t.Fatal(err)
		}
		fac := core.Attach(k, model.Coefficients{Core: 8, Ins: 2, Chip: 5, IncludesChipShare: true},
			core.Config{})
		node := NewNode(k, fac, apps, func(app *App, kk *kernel.Kernel) *server.Deployment {
			return deploys[app.Name](app, kk)
		})
		nodes = append(nodes, node)
	}
	for _, app := range apps {
		app.SvcSec = []float64{0.004, 0.004}
	}
	return eng, NewDispatcher(eng, nodes, apps, policy)
}

func buildApps() ([]*App, map[string]func(*App, *kernel.Kernel) *server.Deployment) {
	a, da := echoApp("alpha", 4e6, 0.2) // strongly prefers node 0
	b, db := echoApp("beta", 4e6, 0.6)  // weakly prefers node 0
	return []*App{a, b}, map[string]func(*App, *kernel.Kernel) *server.Deployment{
		"alpha": da, "beta": db,
	}
}

func TestSimpleBalanceSplitsEvenly(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	d.RunOpenLoop(map[string]float64{"alpha": 200, "beta": 200}, 4*sim.Second, sim.NewRand(1))
	eng.RunUntil(5 * sim.Second)
	counts := d.DispatchCounts()
	for _, app := range []string{"alpha", "beta"} {
		n0, n1 := counts[0][app], counts[1][app]
		frac := float64(n0) / float64(n0+n1)
		if math.Abs(frac-0.5) > 0.06 {
			t.Fatalf("%s split %.2f, want ≈0.5", app, frac)
		}
	}
}

func TestMachineAwareFillsEfficientNodeFirst(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, MachineAware, apps, deploys)
	// Total demand on node 0: (200+200)×0.004/4 = 0.4 < cap → all on 0.
	d.RunOpenLoop(map[string]float64{"alpha": 200, "beta": 200}, 3*sim.Second, sim.NewRand(1))
	eng.RunUntil(4 * sim.Second)
	counts := d.DispatchCounts()
	if counts[1]["alpha"]+counts[1]["beta"] > (counts[0]["alpha"]+counts[0]["beta"])/20 {
		t.Fatalf("underloaded cluster spilled to node 1: %v", counts)
	}
}

func TestMachineAwareSpillsSameComposition(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, MachineAware, apps, deploys)
	// Demand on node 0 = (700+700)×0.004/4 = 1.4 → f = 0.7/1.4 = 0.5.
	d.RunOpenLoop(map[string]float64{"alpha": 700, "beta": 700}, 4*sim.Second, sim.NewRand(1))
	eng.RunUntil(5 * sim.Second)
	counts := d.DispatchCounts()
	for _, app := range []string{"alpha", "beta"} {
		n0, n1 := counts[0][app], counts[1][app]
		frac := float64(n0) / float64(n0+n1)
		if math.Abs(frac-0.5) > 0.08 {
			t.Fatalf("%s node0 fraction %.2f, want ≈0.5 for both apps", app, frac)
		}
	}
}

func TestWorkloadAwareSpillsHighRatioFirst(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, WorkloadAware, apps, deploys)
	// alpha (ratio 0.2) claims node 0 first: its demand 0.7 consumes the
	// whole cap; beta (ratio 0.6) spills entirely.
	d.RunOpenLoop(map[string]float64{"alpha": 700, "beta": 700}, 4*sim.Second, sim.NewRand(1))
	eng.RunUntil(5 * sim.Second)
	counts := d.DispatchCounts()
	alphaFrac := float64(counts[0]["alpha"]) / float64(counts[0]["alpha"]+counts[1]["alpha"])
	betaFrac := float64(counts[0]["beta"]) / float64(counts[0]["beta"]+counts[1]["beta"])
	if alphaFrac < 0.9 {
		t.Fatalf("low-ratio app node0 fraction %.2f, want ≈1.0", alphaFrac)
	}
	if betaFrac > 0.15 {
		t.Fatalf("high-ratio app node0 fraction %.2f, want ≈0", betaFrac)
	}
}

func TestResponseTimesPerApp(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	d.RunOpenLoop(map[string]float64{"alpha": 50, "beta": 50}, 2*sim.Second, sim.NewRand(1))
	eng.RunUntil(3 * sim.Second)
	rts := d.ResponseTimes()
	for _, app := range []string{"alpha", "beta"} {
		if rts[app] < 3.9 || rts[app] > 20 {
			t.Fatalf("%s mean response %.1f ms, want ≥ service 4 ms and small", app, rts[app])
		}
	}
	if len(d.Completed()) == 0 {
		t.Fatal("no completions recorded")
	}
}

func TestOverloadGuardReroutes(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, MachineAware, apps, deploys)
	// The plan believes 100/s (all fits on node 0), but actual arrivals
	// run at 3000/s: the overload guard must shift load to node 1.
	d.SetRates(map[string]float64{"alpha": 100, "beta": 0}, sim.NewRand(1))
	var arrive func()
	n := 0
	arrive = func() {
		if n >= 3000 {
			return
		}
		n++
		d.Dispatch(apps[0])
		eng.After(sim.Millisecond/3, arrive)
	}
	eng.After(1, arrive)
	eng.RunUntil(2 * sim.Second)
	counts := d.DispatchCounts()
	if counts[1]["alpha"] == 0 {
		t.Fatal("overload guard never rerouted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if SimpleBalance.String() == "" || MachineAware.String() == "" || WorkloadAware.String() == "" {
		t.Fatal("empty policy names")
	}
}

func TestLedgerCrossMachineAccounting(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	d.RunOpenLoop(map[string]float64{"alpha": 100, "beta": 100}, 2*sim.Second, sim.NewRand(5))
	eng.RunUntil(3 * sim.Second)

	entries := d.Ledger.Finished()
	if len(entries) < 100 {
		t.Fatalf("ledger finished = %d", len(entries))
	}
	// Response tags carry the executing machine's container stats.
	for _, e := range entries[:20] {
		if e.Tag.Machine == "" {
			t.Fatal("response tag missing machine")
		}
		if e.Tag.EnergyJ <= 0 || e.Tag.CPUTime <= 0 {
			t.Fatalf("response tag missing stats: %+v", e.Tag)
		}
		if e.ResponseTime() <= 0 {
			t.Fatal("ledger response time missing")
		}
	}
	// Ledger totals must equal the sum over the dispatcher's completion
	// records (same containers, two views).
	var direct float64
	for _, c := range d.Completed() {
		direct += c.Req.Cont.EnergyJ()
	}
	if total := d.Ledger.TotalEnergyJ("", ""); total <= 0 || total > direct+1e-9 || total < direct-1e-9 {
		t.Fatalf("ledger total %.3f J != direct %.3f J", total, direct)
	}
	// Per-app filtering partitions the total.
	a := d.Ledger.TotalEnergyJ("alpha", "")
	bb := d.Ledger.TotalEnergyJ("beta", "")
	if a <= 0 || bb <= 0 || a+bb > direct+1e-9 {
		t.Fatalf("per-app totals %.3f + %.3f vs %.3f", a, bb, direct)
	}
}

// TestPlanLedgerReplayInvariants checks the properties a ledger replay
// depends on: request ids are assigned sequentially in dispatch order,
// arrivals are chronological, power targets propagate into the tags, and
// the per-app dispatch counts reconcile with the ledger.
func TestPlanLedgerReplayInvariants(t *testing.T) {
	eng, d, _ := newTriCluster(t, WorkloadAware)
	d.PowerTargets["alpha"] = 2.5 // carried in tags; conditioning stays off
	d.RunOpenLoop(map[string]float64{"alpha": 120, "beta": 60}, 2*sim.Second, sim.NewRand(7))
	eng.RunUntil(3 * sim.Second)
	if len(d.Ledger.Entries()) == 0 {
		t.Fatal("empty ledger")
	}
	counts := map[string]map[string]int{}
	for i := range d.Nodes {
		counts[fmt.Sprintf("n%d", i)] = map[string]int{}
	}
	var lastArrive sim.Time
	for i, e := range d.Ledger.Entries() {
		if e.Tag.RequestID != uint64(i+1) {
			t.Fatalf("entry %d has request id %d", i, e.Tag.RequestID)
		}
		if e.Arrive < lastArrive {
			t.Fatalf("request %d arrived at %d before its predecessor at %d", e.Tag.RequestID, e.Arrive, lastArrive)
		}
		lastArrive = e.Arrive
		if want := d.PowerTargets[e.Tag.App]; e.Tag.PowerTargetW != want {
			t.Fatalf("request %d (%s) carries power target %v, want %v", e.Tag.RequestID, e.Tag.App, e.Tag.PowerTargetW, want)
		}
		if e.Dropped || !e.Finished {
			t.Fatalf("request %d not answered with healthy nodes: %+v", e.Tag.RequestID, e)
		}
		counts[e.Tag.Machine][e.Tag.App]++
	}
	perNode := make([]map[string]int, len(d.Nodes))
	for i := range perNode {
		perNode[i] = counts[fmt.Sprintf("n%d", i)]
	}
	if !reflect.DeepEqual(perNode, d.DispatchCounts()) {
		t.Fatalf("dispatch counts %v do not reconcile with ledger entries %v", d.DispatchCounts(), perNode)
	}
}

// TestOpenLoopDeterministic pins that a live dispatcher run is a pure
// function of its inputs: the same cluster, rates and seed give the same
// placements and the same ledger, and a different seed changes them.
func TestOpenLoopDeterministic(t *testing.T) {
	run := func(seed uint64) ([]map[string]int, []*LedgerEntry) {
		eng, d, _ := newTriCluster(t, WorkloadAware)
		d.PowerTargets["alpha"] = 2.5
		d.RunOpenLoop(map[string]float64{"alpha": 900, "beta": 900}, 2*sim.Second, sim.NewRand(seed))
		eng.RunUntil(3 * sim.Second)
		return d.DispatchCounts(), d.Ledger.Entries()
	}
	countsA, ledgerA := run(7)
	countsB, ledgerB := run(7)
	if !reflect.DeepEqual(countsA, countsB) || !reflect.DeepEqual(ledgerA, ledgerB) {
		t.Fatal("identical live runs produced different placements or ledgers")
	}
	if countsC, ledgerC := run(8); reflect.DeepEqual(countsA, countsC) && reflect.DeepEqual(ledgerA, ledgerC) {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestPowerTargetPropagatesAcrossMachines(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	// Throttle alpha remotely; beta runs at full speed.
	d.PowerTargets["alpha"] = 4 // below alpha's ~10 W request power
	for _, n := range d.Nodes {
		n.Fac.EnableConditioning(1e9) // per-request targets only
	}
	d.RunOpenLoop(map[string]float64{"alpha": 50, "beta": 50}, 2*sim.Second, sim.NewRand(5))
	eng.RunUntil(3 * sim.Second)

	var alphaDuty, betaDuty float64
	var na, nb int
	for _, c := range d.Completed() {
		duty := c.Req.Cont.MeanDutyFraction()
		if c.App == "alpha" {
			alphaDuty += duty
			na++
		} else {
			betaDuty += duty
			nb++
		}
	}
	if na == 0 || nb == 0 {
		t.Fatal("missing completions")
	}
	if alphaDuty/float64(na) > 0.8 {
		t.Fatalf("alpha not throttled remotely: duty %.2f", alphaDuty/float64(na))
	}
	if betaDuty/float64(nb) < 0.99 {
		t.Fatalf("beta throttled without a target: duty %.2f", betaDuty/float64(nb))
	}
}

// newTriCluster builds a three-node cluster: two fast nodes and one slow
// node (double service time), efficiency order 0 > 1 > 2.
func newTriCluster(t *testing.T, policy Policy) (*sim.Engine, *Dispatcher, []*App) {
	return newTriClusterEngines(t, policy, false)
}

// newTriClusterEngines builds the three-node cluster with every node on the
// dispatcher's engine, or with each node on its own (separate).
func newTriClusterEngines(t *testing.T, policy Policy, separate bool) (*sim.Engine, *Dispatcher, []*App) {
	t.Helper()
	apps, deploys := buildApps()
	eng := sim.NewEngine()
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nodeEng := eng
		if separate {
			nodeEng = sim.NewEngine()
		}
		k, err := kernel.New(fmt.Sprintf("n%d", i), quadSpec, testProfile, nodeEng, nil)
		if err != nil {
			t.Fatal(err)
		}
		fac := core.Attach(k, model.Coefficients{Core: 8, Ins: 2, Chip: 5, IncludesChipShare: true}, core.Config{})
		node := NewNode(k, fac, apps, func(app *App, kk *kernel.Kernel) *server.Deployment {
			return deploys[app.Name](app, kk)
		})
		nodes = append(nodes, node)
	}
	for _, app := range apps {
		app.SvcSec = []float64{0.004, 0.004, 0.008}
	}
	return eng, NewDispatcher(eng, nodes, apps, policy), apps
}

func TestThreeTierMachineAwareFillsInOrder(t *testing.T) {
	eng, d, _ := newTriCluster(t, MachineAware)
	// Demand per fast node: (900+900)×0.004/4 = 1.8 of node0's cores →
	// tier 0 takes 0.7/1.8 ≈ 0.39 of volume, tier 1 the same of the
	// remainder, tier 2 the rest.
	d.RunOpenLoop(map[string]float64{"alpha": 900, "beta": 900}, 4*sim.Second, sim.NewRand(3))
	eng.RunUntil(5 * sim.Second)
	counts := d.DispatchCounts()
	tot := func(node int) int { return counts[node]["alpha"] + counts[node]["beta"] }
	if tot(0) == 0 || tot(1) == 0 || tot(2) == 0 {
		t.Fatalf("three-tier fill skipped a node: %d/%d/%d", tot(0), tot(1), tot(2))
	}
	// Tier 0 and 1 get similar shares (both capped); tier 2 absorbs the
	// remainder.
	if f := float64(tot(0)) / float64(tot(0)+tot(1)+tot(2)); f < 0.25 || f > 0.55 {
		t.Fatalf("tier-0 share %.2f implausible", f)
	}
}

func TestThreeTierWorkloadAwarePinsLowRatioApp(t *testing.T) {
	eng, d, _ := newTriCluster(t, WorkloadAware)
	// alpha (low ratio) demand = 900×0.004/4 = 0.9 > cap 0.7 of tier 0:
	// alpha fills tier 0 entirely and spills to tier 1; beta is pushed
	// further down the tiers.
	d.RunOpenLoop(map[string]float64{"alpha": 900, "beta": 900}, 4*sim.Second, sim.NewRand(3))
	eng.RunUntil(5 * sim.Second)
	counts := d.DispatchCounts()
	if counts[0]["beta"] > counts[0]["alpha"]/10 {
		t.Fatalf("tier 0 not reserved for the low-ratio app: %v", counts)
	}
	if counts[2]["beta"] == 0 {
		t.Fatalf("high-ratio app never reached the last tier: %v", counts)
	}
}

// TestSeparateEnginesIdenticalAtAnyJobs runs each node on its own engine:
// Run must simulate the nodes independently and merge their responses into
// the same completions and ledger at any worker count, with every request
// answered and the ledger closed in (done time, request id) order.
func TestSeparateEnginesIdenticalAtAnyJobs(t *testing.T) {
	run := func(jobs int) *Dispatcher {
		_, d, _ := newTriClusterEngines(t, WorkloadAware, true)
		d.PowerTargets["alpha"] = 2.5
		d.RunOpenLoop(map[string]float64{"alpha": 900, "beta": 900}, 2*sim.Second, sim.NewRand(7))
		if err := d.Run(3*sim.Second, jobs); err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := run(1)
	completed := ref.Completed()
	if opened, finished, _, _ := ref.Ledger.Counts(); len(completed) == 0 || finished != opened || len(completed) != opened {
		t.Fatalf("%d completions, %d of %d requests finished", len(completed), finished, opened)
	}
	for i, c := range completed {
		e, _ := ref.Ledger.Entry(c.RequestID)
		if e.Done != c.Req.Done || e.Tag.Machine != fmt.Sprintf("n%d", c.Node) {
			t.Fatalf("request %d not folded into the ledger: %+v", c.RequestID, e)
		}
		if e.Tag.EnergyJ != c.Req.Cont.EnergyJ() || e.Tag.PowerTargetW != c.Req.Cont.PowerTargetW {
			t.Fatalf("request %d: ledger tag %+v disagrees with its container", c.RequestID, e.Tag)
		}
		if i > 0 {
			p := completed[i-1]
			if p.Req.Done > c.Req.Done || (p.Req.Done == c.Req.Done && p.RequestID > c.RequestID) {
				t.Fatalf("completions %d and %d out of (done, id) order", i-1, i)
			}
		}
	}
	for _, jobs := range []int{2, 3} {
		d := run(jobs)
		got := d.Completed()
		if len(got) != len(completed) {
			t.Fatalf("jobs=%d: %d completions, want %d", jobs, len(got), len(completed))
		}
		for i, c := range completed {
			g := got[i]
			if g.RequestID != c.RequestID || g.Node != c.Node || g.Req.Done != c.Req.Done || g.Req.Cont.EnergyJ() != c.Req.Cont.EnergyJ() {
				t.Fatalf("jobs=%d: completion %d differs from jobs=1", jobs, i)
			}
		}
		if !reflect.DeepEqual(d.Ledger.Entries(), ref.Ledger.Entries()) {
			t.Fatalf("jobs=%d: ledger differs from jobs=1", jobs)
		}
	}
}

func TestHealthRejectsSeparateEngines(t *testing.T) {
	_, d, _ := newTriClusterEngines(t, SimpleBalance, true)
	defer func() {
		if recover() == nil {
			t.Fatal("EnableHealth accepted nodes on their own engines")
		}
	}()
	d.EnableHealth(HealthConfig{}, sim.NewRand(1))
}
