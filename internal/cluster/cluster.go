// Package cluster implements §3.4's heterogeneity-aware request
// distribution: a dispatcher spreads a mixed workload over machines of
// different generations, using per-request cross-machine energy profiles
// captured by power containers to place each request where its relative
// energy efficiency is high. Request context (the container identity and
// statistics) crosses machines with the tagged dispatch message, as the
// paper propagates containers over socket messages between machines.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"powercontainers/internal/core"
	"powercontainers/internal/kernel"
	"powercontainers/internal/runner"
	"powercontainers/internal/server"
	"powercontainers/internal/sim"
)

// Policy selects the request distribution scheme of §4.4.
type Policy int

const (
	// SimpleBalance directs an equal amount of load to every machine,
	// oblivious to heterogeneity.
	SimpleBalance Policy = iota
	// MachineAware loads the most energy-efficient machine to a healthy
	// high utilization (~70%) before spilling to others, but distributes
	// the same request composition everywhere.
	MachineAware
	// WorkloadAware additionally places requests by their cross-machine
	// energy affinity: when the efficient machine nears its cap,
	// requests whose relative efficiency there is low are spilled first.
	WorkloadAware
)

func (p Policy) String() string {
	switch p {
	case SimpleBalance:
		return "simple load balance"
	case MachineAware:
		return "machine heterogeneity-aware"
	case WorkloadAware:
		return "workload heterogeneity-aware"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// App is one application hosted on every node of the cluster.
type App struct {
	Name string
	// SvcSec[node] is the app's mean per-request busy time on each node
	// (dispatchers know service demand from standard monitoring).
	SvcSec []float64
	// AffinityRatio is the cross-machine active energy usage ratio
	// (node0 energy / node1 energy) captured by power containers; lower
	// means node0 is relatively much more efficient for this app.
	// Only the workload-aware policy may consult it.
	AffinityRatio float64
}

// loadTauSec is the decay horizon of the dispatcher's per-node offered-load
// estimate.
const loadTauSec = 1.0

// Node is one machine of the cluster with the apps deployed on it.
type Node struct {
	K    *kernel.Kernel
	Fac  *core.Facility
	Gens map[string]*server.LoadGen
	// NewRequest draws the next request of each app (keyed by app name)
	// for execution on this node. NewNode points it at the node's own
	// deployments; a setup may share one node's factories cluster-wide.
	NewRequest map[string]func() *server.Request

	// cores caches the machine's core count for capacity planning.
	cores int

	// ReservedUtil is the utilization fraction standing system services
	// (e.g. GAE background processing) consume on this node regardless
	// of dispatched load; capacity planning subtracts it.
	ReservedUtil float64

	// loadEWMA tracks recently dispatched busy-seconds with exponential
	// decay; loadEWMA/ (τ·cores) estimates the node's offered
	// utilization.
	loadEWMA    float64
	loadUpdated float64

	// failed marks the node dead: responses from it are lost and the
	// dispatcher's health checks steer new work away. Fault plans toggle
	// it (the node implements faults.FailureTarget).
	failed bool

	// responses buffers the completed requests of a node on its own
	// engine until Dispatcher.Run merges them.
	responses []CompletedRequest
}

// SetFailed marks or clears node failure; fault-injection plans call it
// through the faults.FailureTarget interface.
func (n *Node) SetFailed(failed bool) { n.failed = failed }

// Failed reports whether the node is currently down.
func (n *Node) Failed() bool { return n.failed }

// noteDispatch decays and bumps the node's offered-load estimate.
func (n *Node) noteDispatch(nowSec, svcSec float64) {
	n.decay(nowSec)
	n.loadEWMA += svcSec
}

func (n *Node) decay(nowSec float64) {
	if nowSec > n.loadUpdated {
		n.loadEWMA *= math.Exp(-(nowSec - n.loadUpdated) / loadTauSec)
		n.loadUpdated = nowSec
	}
}

// estUtil estimates the node's offered utilization, including its standing
// reserved load.
func (n *Node) estUtil(nowSec float64) float64 {
	n.decay(nowSec)
	return n.ReservedUtil + n.loadEWMA/(loadTauSec*float64(n.cores))
}

// NewNode deploys every app on a machine.
func NewNode(k *kernel.Kernel, fac *core.Facility, apps []*App, deploy func(app *App, k *kernel.Kernel) *server.Deployment) *Node {
	n := &Node{
		K: k, Fac: fac, cores: k.Spec.Cores(),
		Gens:       map[string]*server.LoadGen{},
		NewRequest: map[string]func() *server.Request{},
	}
	for _, app := range apps {
		dep := deploy(app, k)
		n.Gens[app.Name] = server.NewLoadGen(k, fac, dep)
		n.NewRequest[app.Name] = dep.NewRequest
	}
	return n
}

// Dispatcher routes requests to nodes under a policy. Node 0 must be the
// most energy-efficient machine.
type Dispatcher struct {
	// Eng carries the dispatcher's arrivals. Each node's kernel either
	// shares it, executing requests inline, or has an engine of its own
	// that Run simulates in parallel.
	Eng    *sim.Engine
	Nodes  []*Node
	Apps   []*App
	Policy Policy
	// UtilCap is the healthy utilization bound for the efficient machine
	// (the paper uses ~70%).
	UtilCap float64

	// Ledger tracks cross-machine request accounting via tagged dispatch
	// and response messages (§3.4).
	Ledger *Ledger
	// PowerTargets holds optional per-app request power targets that the
	// dispatcher propagates to executing machines with the dispatch tag.
	PowerTargets map[string]float64

	rr        int
	completed []CompletedRequest
	// perApp[node][app] counts dispatched requests, for diagnostics.
	perApp []map[string]int
	// splits[app][node] is the placement plan: the probability that a
	// request of the app goes to the node. Computed by SetRates.
	splits map[string][]float64
	rng    *sim.Rand

	// Health-check state (EnableHealth); all nil/empty when disabled, and
	// every fault-tolerance path is skipped so the legacy dispatch
	// behaviour — including rng consumption — is untouched.
	health   *HealthConfig
	healthy  []bool
	strikes  []int
	probeRng []*sim.Rand
	inflight map[uint64]*inflightReq
}

// inflightReq is a dispatched-but-unanswered request the dispatcher may
// need to redispatch if its node fails.
type inflightReq struct {
	app     *App
	node    int
	attempt int
}

// CompletedRequest records one finished request and the app and node it
// belonged to. RequestID links the request back to its ledger entry, so
// the dispatcher-side accounting can be reconciled against the executing
// machine's container.
type CompletedRequest struct {
	App       string
	Node      int
	RequestID uint64
	Req       *server.Request
}

// NewDispatcher assembles a dispatcher.
func NewDispatcher(eng *sim.Engine, nodes []*Node, apps []*App, policy Policy) *Dispatcher {
	d := &Dispatcher{
		Eng: eng, Nodes: nodes, Apps: apps, Policy: policy,
		UtilCap: 0.70, Ledger: NewLedger(), PowerTargets: map[string]float64{},
	}
	for range nodes {
		d.perApp = append(d.perApp, map[string]int{})
	}
	return d
}

// Completed returns all finished requests across nodes.
func (d *Dispatcher) Completed() []CompletedRequest { return d.completed }

// DispatchCounts returns per-node, per-app dispatch counts.
func (d *Dispatcher) DispatchCounts() []map[string]int { return d.perApp }

// nowSec returns the dispatcher's wall clock in seconds.
func (d *Dispatcher) nowSec() float64 {
	return float64(d.Eng.Now()) / float64(sim.Second)
}

// SetRates informs the dispatcher of the offered per-app request rates and
// computes the placement plan. Both heterogeneity-aware policies fill the
// efficient machine to the healthy cap before spilling; the workload-aware
// policy additionally fills it in ascending affinity-ratio order, so the
// requests that would waste the most energy on the older machine stay on
// the efficient one (§3.4).
func (d *Dispatcher) SetRates(rates map[string]float64, rng *sim.Rand) {
	d.rng = rng
	d.splits = map[string][]float64{}
	n := len(d.Nodes)
	if n == 0 {
		return
	}
	// demand(a, node) is the fraction of node's cores app a's full volume
	// would keep busy.
	demand := func(a *App, node int) float64 {
		return rates[a.Name] * a.SvcSec[node] / float64(d.Nodes[node].cores)
	}
	switch d.Policy {
	case SimpleBalance:
		for _, a := range d.Apps {
			d.splits[a.Name] = equalSplit(n)
		}

	case MachineAware:
		// Tier filling with the same composition everywhere: every app
		// contributes the same fraction to each tier; each tier up to
		// the last is filled to the cap in efficiency order.
		remainingVolume := 1.0 // fraction of every app's volume unplaced
		for _, a := range d.Apps {
			d.splits[a.Name] = make([]float64, n)
		}
		for node := 0; node < n && remainingVolume > 1e-9; node++ {
			frac := remainingVolume
			if node < n-1 {
				var total float64
				for _, a := range d.Apps {
					total += demand(a, node)
				}
				avail := d.UtilCap - d.Nodes[node].ReservedUtil
				if avail < 0.05 {
					avail = 0.05
				}
				if total > 0 && remainingVolume*total > avail {
					frac = avail / total
				}
			}
			for _, a := range d.Apps {
				d.splits[a.Name][node] = frac
			}
			remainingVolume -= frac
		}

	case WorkloadAware:
		// Tier filling in ascending affinity-ratio order: the apps with
		// the strongest affinity to the efficient tiers claim their
		// capacity first; each subsequent tier absorbs the spill.
		order := append([]*App(nil), d.Apps...)
		sort.Slice(order, func(i, j int) bool {
			return order[i].AffinityRatio < order[j].AffinityRatio
		})
		left := map[string]float64{} // unplaced fraction per app
		for _, a := range d.Apps {
			d.splits[a.Name] = make([]float64, n)
			left[a.Name] = 1
		}
		for node := 0; node < n; node++ {
			capacity := d.UtilCap - d.Nodes[node].ReservedUtil
			if capacity < 0.05 {
				capacity = 0.05
			}
			if node == n-1 {
				capacity = 1e18 // the last tier absorbs everything
			}
			for _, a := range order {
				if left[a.Name] <= 1e-12 {
					continue
				}
				dem := demand(a, node) * left[a.Name]
				share := left[a.Name]
				if dem > 0 && dem > capacity {
					share = left[a.Name] * capacity / dem
				}
				d.splits[a.Name][node] = share
				left[a.Name] -= share
				capacity -= demand(a, node) * share
				if capacity < 0 {
					capacity = 0
				}
			}
		}
	}
	d.rebalance(demand)
}

// rebalance relaxes the healthy-utilization caps when the last tier would
// be driven past saturation while earlier tiers still have headroom:
// keeping every machine responsive takes precedence over the efficiency
// ordering. For the workload-aware policy the volume moved up is the
// lowest-affinity-ratio work on the overloaded tier, preserving as much of
// the placement preference as possible.
func (d *Dispatcher) rebalance(demand func(a *App, node int) float64) {
	n := len(d.Nodes)
	if n < 2 || d.Policy == SimpleBalance {
		return
	}
	const hardCap = 0.92
	util := func(node int) float64 {
		u := d.Nodes[node].ReservedUtil
		for _, a := range d.Apps {
			u += d.splits[a.Name][node] * demand(a, node)
		}
		return u
	}
	order := append([]*App(nil), d.Apps...)
	sort.Slice(order, func(i, j int) bool {
		return order[i].AffinityRatio < order[j].AffinityRatio
	})
	last := n - 1
	for iter := 0; iter < 100; iter++ {
		over := util(last) - hardCap
		if over <= 1e-9 {
			return
		}
		moved := false
		for recv := 0; recv < last && over > 1e-9; recv++ {
			headroom := hardCap - util(recv)
			if headroom <= 1e-9 {
				continue
			}
			for _, a := range order {
				frac := d.splits[a.Name][last]
				if frac <= 1e-12 {
					continue
				}
				dRecv, dLast := demand(a, recv), demand(a, last)
				if dRecv <= 0 || dLast <= 0 {
					continue
				}
				move := frac
				if move*dRecv > headroom {
					move = headroom / dRecv
				}
				if move*dLast > over {
					move = over / dLast
				}
				if move <= 1e-12 {
					continue
				}
				d.splits[a.Name][last] -= move
				d.splits[a.Name][recv] += move
				headroom -= move * dRecv
				over -= move * dLast
				moved = true
			}
		}
		if !moved {
			return
		}
	}
}

func equalSplit(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1 / float64(n)
	}
	return s
}

// pick chooses the node for a request of the given app: the planned split
// when one exists, with an overload guard that reroutes when the chosen
// node's offered load runs far past saturation while the other has room.
// The second result is false when no node can take the request — an empty
// node set, or (with health checks enabled) every node marked unhealthy —
// so callers degrade to an explicit drop instead of panicking.
func (d *Dispatcher) pick(app *App) (int, bool) {
	if len(d.Nodes) == 0 {
		return 0, false
	}
	var node int
	if d.splits != nil && d.rng != nil {
		if split, ok := d.splits[app.Name]; ok && splitTotal(split) > 0 {
			node = d.rng.Pick(split)
		}
	} else {
		d.rr++
		node = d.rr % len(d.Nodes)
	}
	if d.Policy != SimpleBalance && len(d.Nodes) > 1 {
		// Overload guard: if the planned node's offered load runs far
		// past saturation, reroute to the least-loaded node with room.
		now := d.nowSec()
		if d.Nodes[node].estUtil(now) > 1.1 {
			best, bestUtil := node, d.Nodes[node].estUtil(now)
			for i := range d.Nodes {
				if u := d.Nodes[i].estUtil(now); u < bestUtil {
					best, bestUtil = i, u
				}
			}
			if bestUtil < 0.9 {
				node = best
			}
		}
	}
	if d.health != nil && !d.healthy[node] {
		return d.pickHealthy()
	}
	return node, true
}

// pickHealthy returns the least-loaded node currently believed healthy
// (lowest index breaking ties), or false when none is.
func (d *Dispatcher) pickHealthy() (int, bool) {
	now := d.nowSec()
	best, bestUtil, found := 0, 0.0, false
	for i := range d.Nodes {
		if d.health != nil && !d.healthy[i] {
			continue
		}
		if u := d.Nodes[i].estUtil(now); !found || u < bestUtil {
			best, bestUtil, found = i, u, true
		}
	}
	return best, found
}

func splitTotal(split []float64) float64 {
	var t float64
	for _, v := range split {
		t += v
	}
	return t
}

// Dispatch routes one request of the app. The dispatch message carries a
// container tag with the request identifier and control policy; the
// completion path returns cumulative statistics to the dispatcher's ledger.
// When no node can take the request it is opened and immediately dropped,
// keeping the ledger's accounting complete (opened = finished + dropped +
// in flight) instead of losing the request silently.
func (d *Dispatcher) Dispatch(app *App) {
	node, ok := d.pick(app)
	tag := d.Ledger.Open(app.Name, d.PowerTargets[app.Name], d.Eng.Now())
	if !ok {
		d.Ledger.Drop(tag.RequestID, d.Eng.Now())
		return
	}
	if d.health != nil {
		d.inflight[tag.RequestID] = &inflightReq{app: app, node: node}
	}
	d.dispatchTo(node, app, tag, 0)
}

// dispatchTo sends one (possibly re-dispatched) request attempt to a node.
// A node on the dispatcher's engine executes it at once. A node on its own
// engine receives it at the same virtual instant on that engine, and its
// response folds into the ledger when Run merges the nodes. The completion
// callback is attempt-guarded: a response from an attempt superseded by a
// redispatch, or from a node that failed before the response left it, is
// discarded rather than double-counted.
func (d *Dispatcher) dispatchTo(node int, app *App, tag ContainerTag, attempt int) {
	n := d.Nodes[node]
	// Drawn here, in dispatch order, so a factory several nodes share
	// yields the same stream however their engines interleave.
	req := n.NewRequest[app.Name]()
	n.noteDispatch(d.nowSec(), app.SvcSec[node])
	d.perApp[node][app.Name]++
	if n.K.Eng != d.Eng {
		id, target := tag.RequestID, tag.PowerTargetW
		n.K.Eng.At(d.Eng.Now(), func() {
			n.inject(app, req, target, func(r *server.Request) {
				n.responses = append(n.responses, CompletedRequest{App: app.Name, Node: node, RequestID: id, Req: r})
			})
		})
		return
	}
	machine := n.K.Name()
	n.inject(app, req, tag.PowerTargetW, func(r *server.Request) {
		if d.health != nil {
			fl, live := d.inflight[tag.RequestID]
			if !live || fl.attempt != attempt {
				return // superseded by a redispatch
			}
			if n.Failed() {
				return // response lost with the failed node
			}
			delete(d.inflight, tag.RequestID)
		}
		d.completed = append(d.completed, CompletedRequest{App: app.Name, Node: node, RequestID: tag.RequestID, Req: r})
		// Response message tagged with cumulative usage (§3.4).
		if err := d.Ledger.Close(responseTag(tag, machine, r), d.Eng.Now()); err != nil {
			panic(err)
		}
	})
}

// inject runs a dispatched request on the node: the executing machine
// materializes the remote container and applies the propagated control
// policy before the request runs.
func (n *Node) inject(app *App, req *server.Request, powerTargetW float64, done func(*server.Request)) {
	req.Cont = n.Fac.NewContainer(req.Type)
	req.Cont.PowerTargetW = powerTargetW
	n.Gens[app.Name].InjectPrepared(req, done)
}

// Run drives the cluster to the horizon: the dispatcher's engine first,
// then every node engine distinct from it, at most jobs at a time
// (runner.Run semantics). Nodes on their own engines never read dispatcher
// state once their requests are queued, and the dispatcher never reads
// theirs (health checking, which would, needs a shared engine), so each
// simulates independently. Their responses then fold into the completion
// list and the ledger in (done time, request id) order, a total order, so
// the result is identical at any jobs.
func (d *Dispatcher) Run(horizon sim.Time, jobs int) error {
	d.Eng.RunUntil(horizon)
	var p runner.Plan
	seen := map[*sim.Engine]bool{d.Eng: true}
	for i, n := range d.Nodes {
		eng := n.K.Eng
		if seen[eng] {
			continue
		}
		seen[eng] = true
		p.Add(fmt.Sprintf("node/%d/%s", i, n.K.Name()), func() (any, error) {
			eng.RunUntil(horizon)
			return nil, nil
		})
	}
	if _, err := runner.Run(&p, jobs); err != nil {
		return err
	}
	start := len(d.completed)
	for _, n := range d.Nodes {
		d.completed = append(d.completed, n.responses...)
		n.responses = nil
	}
	merged := d.completed[start:]
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Req.Done != merged[j].Req.Done {
			return merged[i].Req.Done < merged[j].Req.Done
		}
		return merged[i].RequestID < merged[j].RequestID
	})
	for _, c := range merged {
		e, ok := d.Ledger.Entry(c.RequestID)
		if !ok {
			return fmt.Errorf("cluster: response for unknown request %d", c.RequestID)
		}
		if err := d.Ledger.Close(responseTag(e.Tag, d.Nodes[c.Node].K.Name(), c.Req), c.Req.Done); err != nil {
			return err
		}
	}
	return nil
}

// HealthConfig tunes the dispatcher's per-node health checks and the
// graceful-degradation response to node failure: unhealthy nodes are probed
// on a seeded-jitter exponential backoff, their in-flight requests are
// re-dispatched to healthy nodes a bounded number of times, and requests
// out of redispatch budget (or with no healthy node left) are explicitly
// dropped in the ledger.
type HealthConfig struct {
	// ProbeEvery is the healthy-node probe cadence (default 100 ms).
	ProbeEvery sim.Time
	// Timeout is the probe response deadline: a dead node is only
	// declared after its probe times out (default 20 ms).
	Timeout sim.Time
	// BackoffBase is the first retry gap after a failed probe; successive
	// failures double it (default ProbeEvery).
	BackoffBase sim.Time
	// BackoffMax caps the exponential backoff (default 8×BackoffBase).
	BackoffMax sim.Time
	// JitterFrac spreads every probe gap by ±JitterFrac using the seeded
	// rng, desynchronizing probe storms deterministically (default 0.1).
	JitterFrac float64
	// MaxRedispatch bounds how many times one request may be re-dispatched
	// before it is dropped (default 2).
	MaxRedispatch int
}

func (c *HealthConfig) fill() {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 100 * sim.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 20 * sim.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = c.ProbeEvery
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * c.BackoffBase
	}
	if c.JitterFrac <= 0 {
		c.JitterFrac = 0.1
	}
	if c.MaxRedispatch <= 0 {
		c.MaxRedispatch = 2
	}
}

// EnableHealth starts per-node health checking. Each node's probe stream
// draws jitter from its own fork of rng, so probe timing is deterministic
// regardless of how node events interleave. Call before the simulation
// starts; with health never enabled the dispatcher behaves exactly as
// before, including its random-stream consumption.
func (d *Dispatcher) EnableHealth(cfg HealthConfig, rng *sim.Rand) {
	for _, n := range d.Nodes {
		if n.K.Eng != d.Eng {
			panic("cluster: health checking needs every node on the dispatcher's engine (failure recovery couples dispatch to node execution)")
		}
	}
	cfg.fill()
	d.health = &cfg
	d.healthy = make([]bool, len(d.Nodes))
	d.strikes = make([]int, len(d.Nodes))
	d.inflight = map[uint64]*inflightReq{}
	d.probeRng = make([]*sim.Rand, len(d.Nodes))
	for i := range d.Nodes {
		d.healthy[i] = true
		d.probeRng[i] = rng.Fork(uint64(i) + 1)
		d.scheduleProbe(i, cfg.ProbeEvery)
	}
}

// InflightCount returns how many dispatched requests await a response.
func (d *Dispatcher) InflightCount() int { return len(d.inflight) }

// Healthy reports the dispatcher's current belief about a node.
func (d *Dispatcher) Healthy(node int) bool {
	return d.health == nil || d.healthy[node]
}

// jittered spreads a probe gap by ±JitterFrac with the node's seeded rng.
func (d *Dispatcher) jittered(node int, gap sim.Time) sim.Time {
	j := d.health.JitterFrac * (2*d.probeRng[node].Float64() - 1)
	out := gap + sim.Time(float64(gap)*j)
	if out < 1 {
		out = 1
	}
	return out
}

func (d *Dispatcher) scheduleProbe(node int, gap sim.Time) {
	d.Eng.After(d.jittered(node, gap), func() { d.probe(node) })
}

// probe checks one node. A responsive node is (re)marked healthy and
// re-probed at the base cadence; an unresponsive probe times out first,
// then marks the node unhealthy, re-dispatches its in-flight requests and
// backs off exponentially.
func (d *Dispatcher) probe(node int) {
	if !d.Nodes[node].Failed() {
		d.healthy[node] = true
		d.strikes[node] = 0
		d.scheduleProbe(node, d.health.ProbeEvery)
		return
	}
	d.Eng.After(d.health.Timeout, func() {
		if d.Nodes[node].Failed() {
			d.healthy[node] = false
			d.strikes[node]++
			d.redispatchNode(node)
			gap := d.health.BackoffBase
			for s := 1; s < d.strikes[node] && gap < d.health.BackoffMax; s++ {
				gap *= 2
			}
			if gap > d.health.BackoffMax {
				gap = d.health.BackoffMax
			}
			d.scheduleProbe(node, gap)
			return
		}
		// Recovered between probe and timeout.
		d.healthy[node] = true
		d.strikes[node] = 0
		d.scheduleProbe(node, d.health.ProbeEvery)
	})
}

// redispatchNode moves a failed node's in-flight requests to healthy nodes
// in request-id order (deterministic: never ranges over the map directly).
// A request past its redispatch budget, or with nowhere to go, is dropped
// explicitly so the ledger still accounts for it.
func (d *Dispatcher) redispatchNode(node int) {
	var ids []uint64
	for id, fl := range d.inflight {
		if fl.node == node {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	now := d.Eng.Now()
	for _, id := range ids {
		fl := d.inflight[id]
		fl.attempt++
		target, ok := d.pickHealthy()
		if !ok || fl.attempt > d.health.MaxRedispatch {
			delete(d.inflight, id)
			d.Ledger.Drop(id, now)
			continue
		}
		d.Ledger.NoteRedispatch(id, now)
		fl.node = target
		e, _ := d.Ledger.Entry(id)
		d.dispatchTo(target, fl.app, e.Tag, fl.attempt)
	}
}

// RunOpenLoop drives Poisson arrivals for every app at the given per-app
// rates until the deadline, planning placements from the rates first. The
// arrivals run when the engine does (Run, or Eng.RunUntil when every node
// shares the dispatcher's engine).
func (d *Dispatcher) RunOpenLoop(rates map[string]float64, until sim.Time, rng *sim.Rand) {
	d.SetRates(rates, rng.Fork(99))
	for _, app := range d.Apps {
		app := app
		rate, ok := rates[app.Name]
		if !ok || rate <= 0 {
			continue
		}
		meanGap := float64(sim.Second) / rate
		r := rng.Fork(uint64(len(app.Name)) + uint64(app.Name[0]))
		var arrive func()
		arrive = func() {
			if d.Eng.Now() >= until {
				return
			}
			d.Dispatch(app)
			gap := sim.Time(r.ExpFloat64(meanGap))
			if gap < 1 {
				gap = 1
			}
			d.Eng.After(gap, arrive)
		}
		d.Eng.After(sim.Time(r.ExpFloat64(meanGap)), arrive)
	}
}

// ResponseTimes returns mean response time (ms) per app across the
// cluster, folded in completion order.
func (d *Dispatcher) ResponseTimes() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, c := range d.completed {
		if !c.Req.Finished() {
			continue
		}
		sums[c.App] += float64(c.Req.ResponseTime()) / float64(sim.Millisecond)
		counts[c.App]++
	}
	out := map[string]float64{}
	for name, s := range sums {
		if counts[name] > 0 {
			out[name] = s / float64(counts[name])
		}
	}
	return out
}
