package main

import (
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/obs"
)

// The program's own counters in obs.Default(), read before and after a
// timed phase.

var (
	fwdPaths = []string{nn.FwdPathArith, nn.FwdPathPacked16, nn.FwdPathBlocked, nn.FwdPathBehavioral}
	bwdPaths = []string{nn.BwdPathAffine, nn.BwdPathMixed, nn.BwdPathFused, nn.BwdPathSmall}
)

// counters is a snapshot of the counters the benchmark reports.
type counters struct {
	fwd, bwd              map[string]float64 // nn_kernel_dispatch_total by path
	phaseTrain, phaseEval float64            // train_phase_seconds_total
}

func readCounters() counters {
	reg := obs.Default()
	c := counters{fwd: map[string]float64{}, bwd: map[string]float64{}}
	for _, p := range fwdPaths {
		c.fwd[p], _ = reg.ReadValue("nn_kernel_dispatch_total", "kernel", "forward", "path", p)
	}
	for _, p := range bwdPaths {
		c.bwd[p], _ = reg.ReadValue("nn_kernel_dispatch_total", "kernel", "backward", "path", p)
	}
	c.phaseTrain, _ = reg.ReadValue("train_phase_seconds_total", "phase", "train")
	c.phaseEval, _ = reg.ReadValue("train_phase_seconds_total", "phase", "eval")
	return c
}

// sub returns the change from an earlier snapshot.
func (c counters) sub(before counters) counters {
	d := counters{fwd: map[string]float64{}, bwd: map[string]float64{},
		phaseTrain: c.phaseTrain - before.phaseTrain, phaseEval: c.phaseEval - before.phaseEval}
	for p, v := range c.fwd {
		d.fwd[p] = v - before.fwd[p]
	}
	for p, v := range c.bwd {
		d.bwd[p] = v - before.bwd[p]
	}
	return d
}

func (c counters) bwdTotal() float64 {
	var s float64
	for _, v := range c.bwd {
		s += v
	}
	return s
}

func (c counters) fwdTotal() float64 {
	var s float64
	for _, v := range c.fwd {
		s += v
	}
	return s
}

// setKernelCounts reports nn.kernel.{fwd,bwd}_calls.<path>.
func (b *bench) setKernelCounts(c counters) {
	for _, p := range fwdPaths {
		b.set("nn.kernel.fwd_calls."+p, "count", c.fwd[p])
	}
	for _, p := range bwdPaths {
		b.set("nn.kernel.bwd_calls."+p, "count", c.bwd[p])
	}
}
