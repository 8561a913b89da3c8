package main

import (
	"fmt"
	"runtime"

	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
)

// clusterWL is experiments.Cluster3Ex at one job per CPU: the only
// multi-machine, parallel workload. It covers runner fan-out and the
// cluster plan/shard/merge path. Cluster3Ex builds its machines inside the
// program, so no per-machine layer is reachable from here.
type clusterWL struct {
	seed   uint64
	as     experiments.Assembly
	saving float64 // SavingVsSimple of the last call
}

func newCluster(cfg config) *clusterWL {
	return &clusterWL{seed: cfg.seed, as: experiments.Assembly{Audit: experiments.NewAuditCollector(false)}}
}

func (c *clusterWL) describe() about {
	return about{
		machines: []cpu.MachineSpec{cpu.SandyBridge, cpu.Westmere, cpu.Woodcrest},
		output:   "cluster3", run: "cluster3 call", op: "cluster3 call", jobs: runtime.NumCPU(),
	}
}

// run is one Cluster3Ex call, which is also the operation.
func (c *clusterWL) run(p *phase) (rec runRec) {
	rec.ops = 1
	w := startWatch()
	out, err := c.call(runtime.NumCPU())
	p.op(w.read())
	if err != nil {
		p.fail("cluster3: %v", err)
		rec.failed = 1
		return rec
	}
	rec.digest = digest(out)
	return rec
}

func (c *clusterWL) call(jobs int) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res, err := experiments.Cluster3Ex(experiments.Exec{Jobs: jobs, Assembly: c.as}, c.seed)
	if err != nil {
		return "", err
	}
	c.saving = res.SavingVsSimple
	return res.Render(), nil
}

// reference renders the same experiment serially; Cluster3Ex promises
// byte-identical output at any job count.
func (c *clusterWL) reference() (string, error) {
	out, err := c.call(1)
	if err != nil {
		return "", err
	}
	return digest(out), nil
}

func (c *clusterWL) report(res *result, p *phase) {
	res.printf("cluster_saving_pct %.2f %% (workload-aware vs simple balance)", 100*c.saving)
}
