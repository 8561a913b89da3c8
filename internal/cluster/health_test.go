package cluster

import (
	"testing"

	"powercontainers/internal/faults"
	"powercontainers/internal/sim"
)

// recordingSink counts ledger audit events so tests can reconcile them
// against the ledger's own totals.
type recordingSink struct {
	opens, closes, drops, redispatches int
	dropAfterFinish                    bool
}

func (s *recordingSink) OnLedgerOpen(tag ContainerTag, now sim.Time) { s.opens++ }
func (s *recordingSink) OnLedgerClose(tag ContainerTag, alreadyFinished bool, now sim.Time) {
	s.closes++
}
func (s *recordingSink) OnLedgerDrop(tag ContainerTag, alreadyFinished bool, now sim.Time) {
	s.drops++
	if alreadyFinished {
		s.dropAfterFinish = true
	}
}
func (s *recordingSink) OnLedgerRedispatch(tag ContainerTag, attempts int, now sim.Time) {
	s.redispatches++
}

func TestDispatchToleratesEmptyNodeSet(t *testing.T) {
	eng := sim.NewEngine()
	apps, _ := buildApps()
	d := NewDispatcher(eng, nil, apps, SimpleBalance)
	sink := &recordingSink{}
	d.Ledger.Audit = sink
	d.Dispatch(apps[0]) // must not panic (legacy code divided by len(Nodes))
	opened, finished, dropped, _ := d.Ledger.Counts()
	if opened != 1 || finished != 0 || dropped != 1 {
		t.Fatalf("empty-cluster dispatch: opened=%d finished=%d dropped=%d", opened, finished, dropped)
	}
	if sink.drops != 1 {
		t.Fatalf("drop not audited: %d events", sink.drops)
	}
}

func TestDispatchDropsWhenAllNodesUnhealthy(t *testing.T) {
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	d.EnableHealth(HealthConfig{ProbeEvery: 50 * sim.Millisecond, Timeout: 10 * sim.Millisecond},
		sim.NewRand(42))
	for _, n := range d.Nodes {
		n.SetFailed(true)
	}
	// Let the probes time out and mark both nodes down.
	eng.RunUntil(300 * sim.Millisecond)
	if d.Healthy(0) || d.Healthy(1) {
		t.Fatal("probes did not mark failed nodes unhealthy")
	}
	d.SetRates(map[string]float64{"alpha": 10}, sim.NewRand(7))
	d.Dispatch(apps[0])
	opened, _, dropped, _ := d.Ledger.Counts()
	if opened != 1 || dropped != 1 {
		t.Fatalf("all-unhealthy dispatch: opened=%d dropped=%d", opened, dropped)
	}
	// Recovery: once nodes come back, dispatch proceeds normally again.
	for _, n := range d.Nodes {
		n.SetFailed(false)
	}
	eng.RunUntil(800 * sim.Millisecond)
	if !d.Healthy(0) || !d.Healthy(1) {
		t.Fatal("recovered nodes not re-marked healthy")
	}
	d.Dispatch(apps[0])
	eng.RunUntil(2 * sim.Second)
	if _, finished, _, _ := d.Ledger.Counts(); finished != 1 {
		t.Fatal("post-recovery dispatch did not complete")
	}
}

// failoverRun drives a 2-node cluster through overlapping node-failure
// windows (node 0 down 1–2 s, node 1 down 1.2–1.6 s: briefly no healthy
// node at all) and returns the dispatcher and audit sink after drain.
func failoverRun(t *testing.T, seed uint64) (*Dispatcher, *recordingSink) {
	t.Helper()
	apps, deploys := buildApps()
	eng, d := newCluster(t, SimpleBalance, apps, deploys)
	sink := &recordingSink{}
	d.Ledger.Audit = sink
	d.EnableHealth(HealthConfig{
		ProbeEvery: 50 * sim.Millisecond,
		Timeout:    10 * sim.Millisecond,
	}, sim.NewRand(seed))
	plan := &faults.Plan{Seed: seed, Nodes: []faults.NodeFault{
		{Node: 0, Windows: []faults.Window{{From: sim.Second, To: 2 * sim.Second}}},
		{Node: 1, Windows: []faults.Window{{From: 1200 * sim.Millisecond, To: 1600 * sim.Millisecond}}},
	}}
	plan.ArmNodes(eng, []faults.FailureTarget{d.Nodes[0], d.Nodes[1]})
	d.RunOpenLoop(map[string]float64{"alpha": 150, "beta": 150}, 3*sim.Second, sim.NewRand(seed))
	eng.RunUntil(6 * sim.Second)
	return d, sink
}

// TestLedgerConservationUnderNodeFailure is the node-loss accounting
// property: after a mid-run node failure with redispatch and drops, every
// opened request is exactly one of finished, dropped, or still in flight —
// none lost, none double-counted.
func TestLedgerConservationUnderNodeFailure(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		d, sink := failoverRun(t, seed)
		opened, finished, dropped, redispatches := d.Ledger.Counts()
		if opened == 0 {
			t.Fatalf("seed %d: no requests dispatched", seed)
		}
		if got := finished + dropped + d.InflightCount(); got != opened {
			t.Fatalf("seed %d: conservation broken: opened %d != finished %d + dropped %d + inflight %d",
				seed, opened, finished, dropped, d.InflightCount())
		}
		// The failure windows must actually exercise both degradation
		// paths: redispatch off the dead node, and explicit drops while no
		// node was healthy.
		if redispatches == 0 {
			t.Fatalf("seed %d: node failure caused no redispatches", seed)
		}
		if dropped == 0 {
			t.Fatalf("seed %d: all-nodes-down window caused no drops", seed)
		}
		if sink.drops != dropped || sink.redispatches != redispatches {
			t.Fatalf("seed %d: audit saw %d drops / %d redispatches, ledger has %d / %d",
				seed, sink.drops, sink.redispatches, dropped, redispatches)
		}
		if sink.dropAfterFinish {
			t.Fatalf("seed %d: a finished request was dropped", seed)
		}
		// No double-counted completions, and no entry both finished and
		// dropped.
		seen := map[uint64]bool{}
		for _, c := range d.Completed() {
			if seen[c.RequestID] {
				t.Fatalf("seed %d: request %d completed twice", seed, c.RequestID)
			}
			seen[c.RequestID] = true
		}
		for _, e := range d.Ledger.Entries() {
			if e.Finished && e.Dropped {
				t.Fatalf("seed %d: request %d both finished and dropped", seed, e.Tag.RequestID)
			}
			if e.Finished && !seen[e.Tag.RequestID] {
				t.Fatalf("seed %d: ledger-finished request %d missing from completions", seed, e.Tag.RequestID)
			}
		}
	}
}

// TestFaultedClusterIsDeterministic: the same seed must reproduce the exact
// same accounting totals — fault windows, probes, backoff jitter, and
// redispatch all draw from seeded streams.
func TestFaultedClusterIsDeterministic(t *testing.T) {
	type totals struct{ opened, finished, dropped, redispatches, completed int }
	run := func() totals {
		d, _ := failoverRun(t, 5)
		o, f, dr, re := d.Ledger.Counts()
		return totals{o, f, dr, re, len(d.Completed())}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}
