package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/appmult/retrain/internal/appmult"
	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/serve"
	"github.com/appmult/retrain/internal/train"
)

// The serving workload: one VGG11 replica behind the default batcher
// (MaxBatch 8, MaxDelay 2ms), driven open loop by one generator at a
// fixed Poisson rate of about half the replica's capacity.
const (
	// serveRate is the offered load in requests per second: about half
	// of the one replica's capacity, which saturates near 1100 req/s on
	// a 2-CPU AVX2 Xeon (queue-full refusals start there).
	serveRate = 500
	// serveLimit is the latency a request must meet, counted from its
	// due time, to count towards ok_frac.
	serveLimit = 50 * time.Millisecond
	// imagePool is the number of distinct request images.
	imagePool = 64
)

func runServe(ctx context.Context, b *bench) error {
	dataSeed, modelSeed := subSeed(b.seed, "data"), subSeed(b.seed, "model")
	spec := serve.Spec{Name: "vgg11", Kind: "vgg11", Classes: classes, InputHW: train.ReducedScale.HW,
		Width: train.ReducedScale.Width, Mult: multName, Replicas: 1, Seed: modelSeed}

	// Set-up: request images and the served model, including its
	// warm-up. Loads before the last are drained again.
	var model *serve.Model
	var pool *data.Dataset
	var setup, synth, load []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		_, pool = data.Synthetic(data.SynthConfig{Classes: classes, Train: 1, Test: imagePool,
			HW: spec.InputHW, Seed: dataSeed})
		t1 := time.Now()
		m, err := serve.Load(spec)
		if err != nil {
			return fmt.Errorf("loading the served model: %w", err)
		}
		t2 := time.Now()
		if model != nil {
			if err := model.Batcher().Drain(ctx); err != nil {
				return fmt.Errorf("draining a set-up load: %w", err)
			}
		}
		model = m
		synth = append(synth, t1.Sub(t0).Seconds())
		load = append(load, t2.Sub(t1).Seconds())
		setup = append(setup, t2.Sub(t0).Seconds())
	}
	batcher := model.Batcher()
	// Every request has been answered by the time this runs, so the
	// drain only stops the dispatcher and cannot time out.
	defer func() { _ = batcher.Drain(ctx) }()

	chw := model.ImageLen()
	images := make([][]float32, imagePool)
	for i := range images {
		images[i] = pool.X.Data[i*chw : (i+1)*chw]
	}
	// Reference scores: each image served alone, before the timed phase.
	solo := make([][]float32, imagePool)
	for i, img := range images {
		res := batcher.Do(ctx, img, time.Time{})
		if res.Err != nil {
			return fmt.Errorf("solo pass of image %d: %w", i, res.Err)
		}
		solo[i] = res.Scores
	}

	rng := rand.New(rand.NewSource(subSeed(b.seed, "arrivals")))
	n := int(serveRate * b.seconds.Seconds())
	due := poissonSchedule(rng, n, b.seconds)
	pick := make([]int, n)
	for i := range pick {
		pick[i] = rng.Intn(imagePool)
	}

	c0 := readCounters()
	out := openLoop(ctx, batcher, images, due, pick)
	delta := readCounters().sub(c0)

	// A refused or failed request counts as failed and misses the
	// latency limit; a response whose scores differ from the image's
	// solo scores is also wrong output.
	b.attempted += n
	var lat, queued, sizes []float64
	ok, wrong := 0, 0
	for i, r := range out.results {
		switch {
		case r.Err != nil:
			b.failed++
		case !sameBits(r.Scores, solo[pick[i]]):
			if wrong == 0 {
				b.problem("request %d (image %d, batch of %d) scored %v, alone it scored %v",
					i, pick[i], r.BatchSize, r.Scores, solo[pick[i]])
			}
			wrong++
			b.failed++
		default:
			lat = append(lat, ms(out.latency[i]))
			queued = append(queued, ms(r.Queued))
			sizes = append(sizes, float64(r.BatchSize))
			if out.latency[i] <= serveLimit {
				ok++
			}
		}
	}
	if wrong > 0 {
		b.problem("%d of %d responses differ from their solo scores", wrong, n)
	}
	if delta.bwdTotal() != 0 || delta.fwdTotal() == 0 {
		b.problem("serving should run forward kernels only, got forward %v backward %v", delta.fwd, delta.bwd)
		b.failed = n
	}

	if b.trace {
		b.set("serve.queue_wait_ms.p50", "ms", percentile(queued, 0.50))
		b.set("serve.queue_wait_ms.p99", "ms", percentile(queued, 0.99))
		b.set("serve.batch_size_mean", "count", mean(sizes))
		b.set("serve.gen_late_ms.max", "ms", ms(out.maxLate))
		b.set("data.synth_s", "s", median(synth))
		b.set("serve.load_s", "s", median(load))
		b.setKernelCounts(delta)
		return traceReplica(b, modelSeed, pool)
	}
	b.set("setup_s", "s", median(setup))
	b.set("wall_s", "s", out.wall.Seconds())
	b.set("throughput_per_s", "1/s", float64(len(lat))/out.wall.Seconds())
	b.set("p50_ms", "ms", percentile(lat, 0.50))
	b.set("p99_ms", "ms", percentile(lat, 0.99))
	b.set("ok_frac", "frac", float64(ok)/float64(n))
	return b.setPeakRSS()
}

// openLoopResult is what one open-loop schedule leaves behind.
type openLoopResult struct {
	results []serve.Result
	// latency runs from each request's due time to its completion.
	latency []time.Duration
	// wall runs from the schedule's start to the last completion.
	wall time.Duration
	// maxLate is how far behind its schedule the generator fell.
	maxLate time.Duration
}

// openLoop sends request i at offset due[i] from the start, whether or
// not earlier requests have completed. The generator goroutine only
// sleeps and spawns; each request waits for its answer on its own
// goroutine, blocked rather than busy.
func openLoop(ctx context.Context, batcher *serve.Batcher, images [][]float32, due []time.Duration, pick []int) openLoopResult {
	out := openLoopResult{results: make([]serve.Result, len(due)), latency: make([]time.Duration, len(due))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(at); late > out.maxLate {
			out.maxLate = late
		}
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			out.results[i] = batcher.Do(ctx, images[pick[i]], time.Time{})
			out.latency[i] = time.Since(at)
		}(i, at)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

func sameBits(a, c []float32) bool {
	if len(a) != len(c) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(c[i]) {
			return false
		}
	}
	return true
}

// traceReplica reports the per-layer view of serving from a
// standalone replica built the way serve.Load builds the served one:
// the table and model builds it performs, and the Predict probe with
// the GEMM share of the convolutions' inference time.
func traceReplica(b *bench, modelSeed int64, pool *data.Dataset) error {
	entry, ok := appmult.Lookup(multName)
	if !ok {
		return fmt.Errorf("multiplier %s is not in the registry", multName)
	}
	var op *nn.Op
	b.set("gradient.tables_s", "s", medianCall(func() {
		op = nn.STEOp(entry.Mult)
		op.ForwardPath(1, 1)
	}).Seconds())
	var base *nn.Sequential
	b.set("nn.model_build_s", "s", medianCall(func() {
		base = train.BuildModel("vgg11", classes, train.ReducedScale, models.ApproxConv(op), modelSeed)
	}).Seconds())

	probe := probePredict(b, base, op, pool)
	b.set("trace_overhead_frac", "frac", probe.overhead)
	totals := probe.tr.totals()
	calls := float64(predictCalls)
	for _, k := range layerKinds {
		b.set("nn."+k+".fwd_s", "s", totals[k].infer.Seconds()/calls)
	}
	gemm, _ := probe.tr.replayGEMM(rand.New(rand.NewSource(subSeed(b.seed, "replay"))), true)
	convInfer := totals["approxconv"].infer.Seconds() / calls
	b.set("nn.approxconv.gemm_fwd_s", "s", gemm.Seconds()/calls)
	b.set("nn.approxconv.glue_fwd_s", "s", convInfer-gemm.Seconds()/calls)
	return nil
}
