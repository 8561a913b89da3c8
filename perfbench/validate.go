package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"powercontainers/internal/core"
	"powercontainers/internal/cpu"
	"powercontainers/internal/experiments"
	"powercontainers/internal/sim"
	"powercontainers/internal/workload"
)

// validate is the paper's accuracy experiment: the full Fig. 8 grid —
// every machine × evaluation workload × {peak, half} load × attribution
// approach — run cell by cell at one job, as `pcbench fig8 -jobs 1` does.
// It exercises the simulator and the facility and never touches the
// stream, durable or cluster layers.
type validate struct {
	seed  uint64
	specs []cpu.MachineSpec
	wls   []workload.Workload
	as    experiments.Assembly
	worst float64 // worst recalibrated-approach error of the last pass
}

func newValidate(cfg config) *validate {
	v := &validate{
		seed:  cfg.seed,
		specs: cpu.Specs(),
		wls:   experiments.EvalWorkloads(),
		as:    experiments.Assembly{Audit: experiments.NewAuditCollector(false)},
	}
	if cfg.small {
		v.specs, v.wls = v.specs[2:], v.wls[:1]
	}
	return v
}

func (v *validate) describe() about {
	return about{machines: v.specs, output: "fig8-grid", run: "grid pass", op: "cell", jobs: 1}
}

// run is one grid pass in Fig. 8's cell order.
func (v *validate) run(p *phase) runRec {
	var rec runRec
	var cells []experiments.Fig8Cell
	for _, spec := range v.specs {
		for _, wl := range v.wls {
			for _, load := range []experiments.LoadLevel{experiments.PeakLoad, experiments.HalfLoad} {
				for _, ap := range experiments.Approaches() {
					w := startWatch()
					c, simS, err := v.cell(p.tr, spec, wl, load, ap)
					p.op(w.read())
					rec.ops++
					if err != nil {
						p.fail("cell %s/%s/%s/%s: %v", spec.Name, wl.Name(), load, ap, err)
						rec.failed++
						continue
					}
					rec.simS += simS
					cells = append(cells, c)
				}
			}
		}
	}
	res := v.reduce(cells)
	rec.digest = digest(res.Render())
	v.worst = 0
	for _, w := range res.WorstByApproach {
		v.worst = max(v.worst, w[core.ApproachRecalibrated])
	}
	return rec
}

// cell runs one grid cell exactly as experiments.Fig8 does — a fresh
// machine, then RunOn — with the layer wrappers installed when traced.
func (v *validate) cell(tr *layers, spec cpu.MachineSpec, wl workload.Workload, load experiments.LoadLevel, ap core.Approach) (c experiments.Fig8Cell, simS float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	m, err := v.as.NewMachine(spec, ap, v.seed)
	if err != nil {
		return c, 0, err
	}
	if tr != nil {
		if err := tr.attach(m); err != nil {
			return c, 0, err
		}
	}
	r, err := experiments.RunOn(m, experiments.RunSpec{Workload: wl, Load: load})
	if err != nil {
		return c, 0, err
	}
	if tr != nil {
		tr.simNS += int64(time.Since(t0))
		tr.harvest(m, r.Gen)
	}
	c = experiments.Fig8Cell{Machine: spec.Name, Workload: wl.Name(), Load: load, Approach: ap, Error: r.ValidationError()}
	return c, float64(m.Eng.Now()) / float64(sim.Second), nil
}

// reduce builds the Fig. 8 result from its cells, as experiments.Fig8
// does.
func (v *validate) reduce(cells []experiments.Fig8Cell) *experiments.Fig8Result {
	res := &experiments.Fig8Result{Cells: cells, WorstByApproach: map[string]map[core.Approach]float64{}}
	for _, spec := range v.specs {
		res.WorstByApproach[spec.Name] = map[core.Approach]float64{}
	}
	for _, c := range cells {
		if c.Error > res.WorstByApproach[c.Machine][c.Approach] {
			res.WorstByApproach[c.Machine][c.Approach] = c.Error
		}
	}
	return res
}

// reference renders the same grid through experiments.Fig8, the path
// behind `pcbench fig8`, fanned out over every CPU.
func (v *validate) reference() (string, error) {
	res, err := experiments.Fig8(experiments.Fig8Options{
		Machines: v.specs, Workloads: v.wls,
		Exec: experiments.Exec{Jobs: runtime.NumCPU(), Assembly: v.as},
	}, v.seed)
	if err != nil {
		return "", err
	}
	return digest(res.Render()), nil
}

func (v *validate) report(res *result, p *phase) {
	res.printf("attr_err_worst_pct %.2f %% (worst Fig. 8 error of the recalibrated approach)", 100*v.worst)
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}
