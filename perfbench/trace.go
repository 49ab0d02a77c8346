package main

import (
	"math/rand"
	"sort"
	"time"

	"github.com/appmult/retrain/internal/data"
	"github.com/appmult/retrain/internal/models"
	"github.com/appmult/retrain/internal/nn"
	"github.com/appmult/retrain/internal/quant"
	"github.com/appmult/retrain/internal/tensor"
)

// The traced run times each layer from outside the program: every leaf
// of an nn.Sequential (recursing into nested Sequential and Residual
// containers) is replaced by a timedLayer that reads the clock around
// the call and passes everything else through. Layers are driven by one
// goroutine at a time (the nn single-graph discipline), so the
// counters need no locking.

// layerKinds are the layer families the per-layer metrics name, in
// report order. Leaves of any other type (flatten, global pooling,
// identity shortcuts) are timed under "other" so that their time is
// still subtracted from train.step_other_s.
var layerKinds = []string{"approxconv", "batchnorm", "relu", "maxpool", "linear"}

func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.ApproxConv2D:
		return "approxconv"
	case *nn.BatchNorm2D:
		return "batchnorm"
	case *nn.ReLU:
		return "relu"
	case *nn.MaxPool2D:
		return "maxpool"
	case *nn.Linear, *nn.ApproxLinear:
		return "linear"
	default:
		return "other"
	}
}

// gemmShape is one approximate-GEMM call shape of a convolution.
type gemmShape struct{ rows, outC, k int }

// layerTimes accumulates one wrapped layer's busy time by direction.
type layerTimes struct {
	kind string
	// fwd is training-mode Forward, infer is the nn.Inferer path, bwd
	// is Backward. Evaluation-mode Forward is not timed: the evaluation
	// pass is train.phase_eval_s.
	fwd, infer, bwd time.Duration
	// conv is set for approximate convolutions: the GEMM shapes seen
	// per direction, with call counts, for replay.
	conv               *nn.ApproxConv2D
	fwdShapes, inferSh map[gemmShape]int
	lastFwd            gemmShape
	bwdShapes          map[gemmShape]int
	// dy is a copy of the last output gradient, in the GEMM's
	// (rows x outC) layout: the backward kernels skip zero gradients,
	// so the replay needs the real sparsity, not random values.
	dy []float32
}

// timedLayer is the timing wrapper. It implements nn.Inferer so that
// Predict keeps taking each layer's inference path.
type timedLayer struct {
	inner nn.Layer
	t     *layerTimes
}

func (w *timedLayer) Name() string        { return w.inner.Name() }
func (w *timedLayer) Params() []*nn.Param { return w.inner.Params() }

func (w *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return w.inner.Forward(x, train)
	}
	start := time.Now()
	y := w.inner.Forward(x, train)
	w.t.fwd += time.Since(start)
	if w.t.conv != nil {
		s := convShape(w.t.conv, x)
		w.t.fwdShapes[s]++
		w.t.lastFwd = s
	}
	return y
}

func (w *timedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	dx := w.inner.Backward(dy)
	w.t.bwd += time.Since(start)
	if w.t.conv != nil {
		w.t.bwdShapes[w.t.lastFwd]++
		w.t.dy = rowsLayout(w.t.dy, dy)
	}
	return dx
}

// rowsLayout copies an NCHW gradient into dst as the (N*H*W x C)
// matrix the GEMM consumes, reusing dst's storage.
func rowsLayout(dst []float32, dy *tensor.Tensor) []float32 {
	n, c, hw := dy.Shape[0], dy.Shape[1], dy.Shape[2]*dy.Shape[3]
	if cap(dst) < len(dy.Data) {
		dst = make([]float32, len(dy.Data))
	}
	dst = dst[:len(dy.Data)]
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			src := dy.Data[(i*c+ch)*hw : (i*c+ch+1)*hw]
			for p, v := range src {
				dst[(i*hw+p)*c+ch] = v
			}
		}
	}
	return dst
}

func (w *timedLayer) Infer(x *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	y := nn.Infer(w.inner, x)
	w.t.infer += time.Since(start)
	if w.t.conv != nil {
		w.t.inferSh[convShape(w.t.conv, x)]++
	}
	return y
}

func convShape(c *nn.ApproxConv2D, x *tensor.Tensor) gemmShape {
	g := tensor.Geometry(c.InC, x.Shape[2], x.Shape[3], c.OutC, c.K, c.K, c.Stride, c.Pad)
	return gemmShape{rows: x.Shape[0] * g.OutH * g.OutW, outC: c.OutC, k: g.K()}
}

// tracer owns the wrappers of one instrumented model.
type tracer struct{ layers []*layerTimes }

// instrument wraps every leaf layer under l in place and returns the
// layer to put where l was.
func (tr *tracer) instrument(l nn.Layer) nn.Layer {
	switch v := l.(type) {
	case *nn.Sequential:
		for i, c := range v.Layers {
			v.Layers[i] = tr.instrument(c)
		}
		return v
	case *nn.Residual:
		v.Main = tr.instrument(v.Main)
		v.Shortcut = tr.instrument(v.Shortcut)
		return v
	}
	t := &layerTimes{kind: kindOf(l)}
	if c, ok := l.(*nn.ApproxConv2D); ok {
		t.conv = c
		t.fwdShapes = map[gemmShape]int{}
		t.bwdShapes = map[gemmShape]int{}
		t.inferSh = map[gemmShape]int{}
	}
	tr.layers = append(tr.layers, t)
	return &timedLayer{inner: l, t: t}
}

// kindTotals sums the wrapped layers' times per family.
type kindTotals struct{ fwd, infer, bwd time.Duration }

func (tr *tracer) totals() map[string]kindTotals {
	out := map[string]kindTotals{}
	for _, l := range tr.layers {
		k := out[l.kind]
		k.fwd += l.fwd
		k.infer += l.infer
		k.bwd += l.bwd
		out[l.kind] = k
	}
	return out
}

// trainLayerTime is the wrapped time spent inside the training step
// (training-mode forward plus backward) over every leaf.
func (tr *tracer) trainLayerTime() time.Duration {
	var d time.Duration
	for _, l := range tr.layers {
		d += l.fwd + l.bwd
	}
	return d
}

// replayGEMM re-runs each convolution's recorded GEMM shapes through
// the public (*nn.Op).ForwardGEMM/BackwardGEMM on random operands and
// returns the estimated total GEMM time of the recorded calls: the
// median replayed time per shape times its call count. inference
// selects which forward calls are replayed (inference instead of
// training forward; inference has no backward calls).
func (tr *tracer) replayGEMM(rng *rand.Rand, inference bool) (fwd, bwd time.Duration) {
	for _, l := range tr.layers {
		if l.conv == nil {
			continue
		}
		op := l.conv.Op()
		shapes := l.fwdShapes
		if inference {
			shapes = l.inferSh
		}
		for _, s := range sortedShapes(shapes) {
			fwd += time.Duration(shapes[s]) * replayForward(rng, op, s)
		}
		if inference {
			continue
		}
		for _, s := range sortedShapes(l.bwdShapes) {
			bwd += time.Duration(l.bwdShapes[s]) * replayBackward(rng, op, s, l.dy)
		}
	}
	return fwd, bwd
}

func sortedShapes(m map[gemmShape]int) []gemmShape {
	out := make([]gemmShape, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.rows != b.rows {
			return a.rows < b.rows
		}
		return a.outC*a.k < b.outC*b.k
	})
	return out
}

// replayCalls is how many timed calls each replayed shape gets (after
// one warm-up call); their median is the per-call estimate.
const replayCalls = 9

// replayOperands draws quantized operands at the op's bit width with
// per-tensor quantization parameters.
func replayOperands(rng *rand.Rand, op *nn.Op, s gemmShape) (xq, wq []uint8, pw []quant.Params, px quant.Params) {
	levels := 1 << op.Bits
	xq = make([]uint8, s.rows*s.k)
	for i := range xq {
		xq[i] = uint8(rng.Intn(levels))
	}
	wq = make([]uint8, s.outC*s.k)
	for i := range wq {
		wq[i] = uint8(rng.Intn(levels))
	}
	pw = []quant.Params{{Scale: 0.01, Zero: int32(levels / 2), Bits: op.Bits}}
	px = quant.Params{Scale: 0.02, Zero: int32(levels / 4), Bits: op.Bits}
	return xq, wq, pw, px
}

func replayForward(rng *rand.Rand, op *nn.Op, s gemmShape) time.Duration {
	xq, wq, pw, px := replayOperands(rng, op, s)
	bias := make([]float32, s.outC)
	dst := make([]float32, s.rows*s.outC)
	var ks nn.KernelScratch
	return medianCall(func() {
		op.ForwardGEMM(&ks, dst, xq, wq, s.rows, s.outC, s.k, pw, px, bias)
	})
}

// replayBackward replays one backward shape with the recorded output
// gradient when it has the shape's size, else with a dense random one.
func replayBackward(rng *rand.Rand, op *nn.Op, s gemmShape, recorded []float32) time.Duration {
	xq, wq, pw, px := replayOperands(rng, op, s)
	dy := recorded
	if len(dy) != s.rows*s.outC {
		dy = make([]float32, s.rows*s.outC)
		for i := range dy {
			dy[i] = float32(rng.NormFloat64())
		}
	}
	xClip := make([]bool, len(xq))
	wClip := make([]bool, len(wq))
	dw := make([]float32, s.outC*s.k)
	dxcols := make([]float32, s.rows*s.k)
	gsum := make([]float32, s.outC)
	var ks nn.KernelScratch
	return medianCall(func() {
		op.BackwardGEMM(&ks, dw, dxcols, gsum, dy, xq, wq, xClip, wClip, s.rows, s.outC, s.k, pw, px)
	})
}

// medianCall runs f once to size its scratch, then replayCalls timed
// times, and returns the median duration.
func medianCall(f func()) time.Duration {
	f()
	ts := make([]float64, replayCalls)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts))
}

// predictCalls is how many standalone Predict calls the traced run
// times per configuration.
const predictCalls = 60

// predictResult is what probePredict leaves for its caller.
type predictResult struct {
	// tr holds the wrapped replica's layer times over predictCalls
	// batch-8 Predict calls.
	tr *tracer
	// overhead is the wrapped replica's median batch-8 Predict time over
	// the plain one's, minus 1.
	overhead float64
}

// probePredict times standalone inference replicas of base, outside
// any batcher: calls alternate between a plain replica (Predict at
// batch 1 and at the serving batcher's default MaxBatch of 8) and a
// replica with every layer wrapped (at batch 8). It sets
// nn.predict_ms.b1, nn.predict_ms.b8 and nn.approxconv.infer_s (per
// batch-8 Predict).
func probePredict(b *bench, base *nn.Sequential, op *nn.Op, pool *data.Dataset) predictResult {
	reps := models.Replicas(base, op, 2)
	plain, traced := reps[0], reps[1]
	x1, x8 := batchOf(pool, 1), batchOf(pool, 8)
	// The first call calibrates the observers, as serve.Load's warm-up
	// does.
	plain.Predict(x8)
	traced.Predict(x8)
	tr := &tracer{}
	tr.instrument(traced)
	var b1, b8, t8 []float64
	timed := func(m *nn.Sequential, x *tensor.Tensor) float64 {
		start := time.Now()
		m.Predict(x)
		return ms(time.Since(start))
	}
	for i := 0; i < predictCalls; i++ {
		b1 = append(b1, timed(plain, x1))
		b8 = append(b8, timed(plain, x8))
		t8 = append(t8, timed(traced, x8))
	}
	b.set("nn.predict_ms.b1", "ms", median(b1))
	b.set("nn.predict_ms.b8", "ms", median(b8))
	b.set("nn.approxconv.infer_s", "s", tr.totals()["approxconv"].infer.Seconds()/predictCalls)
	return predictResult{tr: tr, overhead: median(t8)/median(b8) - 1}
}

// batchOf copies the first n images of ds into one NCHW batch.
func batchOf(ds *data.Dataset, n int) *tensor.Tensor {
	c, h, w := ds.X.Shape[1], ds.X.Shape[2], ds.X.Shape[3]
	x := tensor.New(n, c, h, w)
	copy(x.Data, ds.X.Data[:n*c*h*w])
	return x
}

// stepClock wraps a whole model handed to train.Run and records the
// interval between consecutive training-mode forward passes of one
// epoch: one full optimizer step including the data iterator, loss,
// backward and Adam. An evaluation pass (Forward with train false)
// ends the epoch, so the interval spanning it is dropped. It reads the
// clock once per forward call and appends to a preallocated slice.
type stepClock struct {
	nn.Layer
	last  time.Time
	steps []float64 // step intervals in milliseconds
}

func newStepClock(model nn.Layer, capacity int) *stepClock {
	return &stepClock{Layer: model, steps: make([]float64, 0, capacity)}
}

func (c *stepClock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		c.last = time.Time{}
		return c.Layer.Forward(x, train)
	}
	now := time.Now()
	if !c.last.IsZero() {
		c.steps = append(c.steps, float64(now.Sub(c.last))/float64(time.Millisecond))
	}
	c.last = now
	return c.Layer.Forward(x, train)
}
