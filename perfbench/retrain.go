package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/train"
)

// Every workload uses this approximate multiplier and the reduced
// experiment geometry (16x16 inputs, width 0.125, batch 32, 960/240
// synthetic split, 10 classes).
const (
	multName = "mul7u_rm6"
	classes  = 10
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 5
)

// retrainWorkload is one train.Run workload: a model kind trained with
// a gradient estimator for a fixed number of epochs per timed run.
type retrainWorkload struct {
	kind, estimator string
	epochs          int
	// tiersOK checks the backward kernel tiers the workload's rationale
	// rests on, from one untraced run's dispatch counts.
	tiersOK func(bwd map[string]float64) bool
}

// retrainVGG11 runs backward on the fused gather tier (the deeper
// convolutions) and on the small tier (the first two).
var retrainVGG11 = retrainWorkload{kind: "vgg11", estimator: "smoothdiff", epochs: 1,
	tiersOK: func(bwd map[string]float64) bool { return bwd["fused"] > 0 && bwd["small"] > 0 }}

// retrainLeNet runs every backward on the small tier.
var retrainLeNet = retrainWorkload{kind: "lenet", estimator: "ste", epochs: 3,
	tiersOK: func(bwd map[string]float64) bool {
		return bwd["small"] > 0 && bwd["fused"] == 0 && bwd["affine"] == 0
	}}

// retrainRep is what one timed train.Run leaves behind.
type retrainRep struct {
	res        train.Result
	wall       time.Duration
	steps      []float64 // step intervals, ms
	delta      counters
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	tr         *tracer // nil for an untraced run
}

func (w retrainWorkload) run(_ context.Context, b *bench) error {
	entry, ok := appmult.Lookup(multName)
	if !ok {
		return fmt.Errorf("multiplier %s is not in the registry", multName)
	}
	sc := train.ReducedScale
	sc.Epochs = w.epochs
	dataSeed, modelSeed := subSeed(b.seed, "data"), subSeed(b.seed, "model")

	// Set-up: gradient tables (plus the kernels' padded copies, built
	// on first use otherwise), synthetic data and the model.
	var op *nn.Op
	var trainSet, testSet *data.Dataset
	var setup, tables, synth, build []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		op, err = train.OpForSpec(entry, w.estimator)
		if err != nil {
			return fmt.Errorf("building %s tables: %w", w.estimator, err)
		}
		op.BackwardPath(1, 1)
		t1 := time.Now()
		trainSet, testSet = data.Synthetic(data.SynthConfig{
			Classes: classes, Train: sc.Train, Test: sc.Test, HW: sc.HW, Seed: dataSeed})
		t2 := time.Now()
		train.BuildModel(w.kind, classes, sc, models.ApproxConv(op), modelSeed)
		t3 := time.Now()
		tables = append(tables, t1.Sub(t0).Seconds())
		synth = append(synth, t2.Sub(t1).Seconds())
		build = append(build, t3.Sub(t2).Seconds())
		setup = append(setup, t3.Sub(t0).Seconds())
	}

	cfg := train.Config{Epochs: sc.Epochs, BatchSize: sc.BatchSize, Schedule: sc.Schedule(),
		Seed: subSeed(b.seed, "shuffle"), Estimator: w.estimator}
	stepsPerRun := sc.Epochs * ((sc.Train + sc.BatchSize - 1) / sc.BatchSize)

	var ref *train.Result
	once := func(traced bool) retrainRep {
		model := train.BuildModel(w.kind, classes, sc, models.ApproxConv(op), modelSeed)
		var rep retrainRep
		if traced {
			rep.tr = &tracer{}
			rep.tr.instrument(model)
		}
		clock := newStepClock(model, stepsPerRun)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0 := readCounters()
		start := time.Now()
		rep.res = train.Run(clock, trainSet, testSet, cfg)
		rep.wall = time.Since(start)
		rep.delta = readCounters().sub(c0)
		runtime.ReadMemStats(&m1)
		rep.steps = clock.steps
		rep.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		rep.mallocs = m1.Mallocs - m0.Mallocs
		rep.gcCycles = m1.NumGC - m0.NumGC
		w.check(b, &rep, stepsPerRun, &ref, traced)
		fmt.Fprintf(os.Stderr, "perfbench: %s/%s traced=%v wall %.3fs train phase %.3fs\n",
			w.kind, w.estimator, traced, rep.wall.Seconds(), rep.res.Seconds)
		return rep
	}

	// One untimed epoch first, so that the process-wide warm-up (heap
	// growth, worker pool start, first-touch page faults) is not charged
	// to the first timed run.
	warm := cfg
	warm.Epochs = 1
	train.Run(train.BuildModel(w.kind, classes, sc, models.ApproxConv(op), modelSeed), trainSet, testSet, warm)

	var plain, traced []retrainRep
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		plain = append(plain, once(false))
		if b.trace {
			traced = append(traced, once(true))
		}
	}

	if b.trace {
		w.reportLayers(b, plain, traced, stepsPerRun, tables, synth, build)
		probePredict(b, train.BuildModel(w.kind, classes, sc, models.ApproxConv(op), modelSeed), op, testSet)
		return nil
	}
	var walls, rates, steps []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(sc.Epochs*sc.Train)/r.res.Seconds)
		steps = append(steps, r.steps...)
	}
	b.set("setup_s", "s", median(setup))
	b.set("wall_s", "s", median(walls))
	b.set("throughput_per_s", "1/s", median(rates))
	b.set("p50_ms", "ms", percentile(steps, 0.50))
	b.set("p99_ms", "ms", percentile(steps, 0.99))
	b.set("ok_frac", "frac", float64(b.attempted-b.failed)/float64(b.attempted))
	return b.setPeakRSS()
}

// check applies the correctness gate to one run: no skipped or
// rolled-back step, top-1 above chance, the kernel tiers the workload
// claims to exercise, and per-epoch losses and accuracies bit-equal to
// the first run of this seed (so an untraced run, every repeat and
// every traced run must agree exactly).
func (w retrainWorkload) check(b *bench, rep *retrainRep, steps int, ref **train.Result, traced bool) {
	res := rep.res
	b.attempted += steps
	// A skipped or rolled-back step fails on its own; a wrong
	// trajectory fails every step of the run.
	bad := res.SkippedSteps + res.Rollbacks
	if bad > 0 {
		b.problem("%d skipped steps and %d rollbacks", res.SkippedSteps, res.Rollbacks)
	}
	if top1 := res.FinalTop1(); !(top1 > 100.0/classes) {
		b.problem("final top-1 %.2f%% is not above chance (%.0f%%)", top1, 100.0/classes)
		bad = steps
	}
	if *ref == nil {
		*ref = &res
	} else if !sameTrajectory(**ref, res) {
		kind := "an untraced"
		if traced {
			kind = "a traced"
		}
		b.problem("losses/top-1 of %s run %v %v differ from the first run's %v %v",
			kind, res.TrainLoss, res.TestTop1, (*ref).TrainLoss, (*ref).TestTop1)
		bad = steps
	}
	if !traced && !w.tiersOK(rep.delta.bwd) {
		b.problem("%s/%s ran backward on unexpected kernel tiers: %v", w.kind, w.estimator, rep.delta.bwd)
		bad = steps
	}
	b.failed += min(bad, steps)
}

// sameTrajectory reports whether two runs have bit-identical per-epoch
// losses and top-1/top-5 accuracies.
func sameTrajectory(a, c train.Result) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return eq(a.TrainLoss, c.TrainLoss) && eq(a.TestTop1, c.TestTop1) && eq(a.TestTop5, c.TestTop5)
}

// reportLayers sets the per-layer metrics of a traced retrain run. Layer
// and phase times are per train.Run, averaged over the traced runs;
// counts and allocations come from the untraced runs.
func (w retrainWorkload) reportLayers(b *bench, plain, traced []retrainRep, stepsPerRun int, tables, synth, build []float64) {
	n := float64(len(traced))
	perKind := map[string]kindTotals{}
	var phaseTrain, phaseEval, layerTime float64
	for _, r := range traced {
		for k, t := range r.tr.totals() {
			a := perKind[k]
			a.fwd += t.fwd
			a.bwd += t.bwd
			perKind[k] = a
		}
		phaseTrain += r.delta.phaseTrain
		phaseEval += r.delta.phaseEval
		layerTime += r.tr.trainLayerTime().Seconds()
	}
	for _, k := range layerKinds {
		b.set("nn."+k+".fwd_s", "s", perKind[k].fwd.Seconds()/n)
		b.set("nn."+k+".bwd_s", "s", perKind[k].bwd.Seconds()/n)
	}
	// Every traced run records the same GEMM shapes; replay the last.
	gemmFwd, gemmBwd := traced[len(traced)-1].tr.replayGEMM(rand.New(rand.NewSource(subSeed(b.seed, "replay"))), false)
	convFwd := perKind["approxconv"].fwd.Seconds() / n
	b.set("nn.approxconv.gemm_fwd_s", "s", gemmFwd.Seconds())
	b.set("nn.approxconv.glue_fwd_s", "s", convFwd-gemmFwd.Seconds())
	b.set("nn.approxconv.gemm_bwd_s", "s", gemmBwd.Seconds())

	b.setKernelCounts(plain[0].delta)
	b.set("train.phase_train_s", "s", phaseTrain/n)
	b.set("train.phase_eval_s", "s", phaseEval/n)
	b.set("train.step_other_s", "s", (phaseTrain-layerTime)/n)

	steps := float64(stepsPerRun)
	var alloc, mallocs, gcs, plainWall, tracedWall []float64
	for _, r := range plain {
		alloc = append(alloc, float64(r.allocBytes)/steps)
		mallocs = append(mallocs, float64(r.mallocs)/steps)
		gcs = append(gcs, float64(r.gcCycles))
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	b.set("train.alloc_bytes_per_step", "B", median(alloc))
	b.set("train.mallocs_per_step", "count", median(mallocs))
	b.set("train.gc_cycles", "count", median(gcs))
	b.set("train.top1_pct", "%", plain[0].res.FinalTop1())
	b.set("train.final_loss", "nat", plain[0].res.FinalLoss())
	b.set("trace_overhead_frac", "frac", median(tracedWall)/median(plainWall)-1)

	b.set("gradient.tables_s", "s", median(tables))
	b.set("data.synth_s", "s", median(synth))
	b.set("nn.model_build_s", "s", median(build))
}
