package main

import "fmt"

// metricSpec names one reported metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the --trace 0 metrics. Each has a meaning on every
// workload (see doc.go), so every run reports all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the --trace 1 metrics. A metric that does not apply to
// a workload (batch norm in LeNet, serving queues in training) is
// reported as 0.
var perLayer = func() []metricSpec {
	var m []metricSpec
	for _, k := range layerKinds {
		m = append(m, metricSpec{"nn." + k + ".fwd_s", "s", "lower"})
		m = append(m, metricSpec{"nn." + k + ".bwd_s", "s", "lower"})
	}
	m = append(m,
		metricSpec{"nn.approxconv.glue_fwd_s", "s", "lower"},
		metricSpec{"nn.approxconv.gemm_fwd_s", "s", "lower"},
		metricSpec{"nn.approxconv.gemm_bwd_s", "s", "lower"},
		metricSpec{"nn.approxconv.infer_s", "s", "lower"},
		metricSpec{"nn.predict_ms.b1", "ms", "lower"},
		metricSpec{"nn.predict_ms.b8", "ms", "lower"},
	)
	for _, p := range fwdPaths {
		m = append(m, metricSpec{"nn.kernel.fwd_calls." + p, "count", "lower"})
	}
	for _, p := range bwdPaths {
		m = append(m, metricSpec{"nn.kernel.bwd_calls." + p, "count", "lower"})
	}
	return append(m,
		metricSpec{"train.phase_train_s", "s", "lower"},
		metricSpec{"train.phase_eval_s", "s", "lower"},
		metricSpec{"train.step_other_s", "s", "lower"},
		metricSpec{"train.alloc_bytes_per_step", "B", "lower"},
		metricSpec{"train.mallocs_per_step", "count", "lower"},
		metricSpec{"train.gc_cycles", "count", "lower"},
		metricSpec{"train.top1_pct", "%", "higher"},
		metricSpec{"train.final_loss", "nat", "lower"},
		metricSpec{"serve.queue_wait_ms.p50", "ms", "lower"},
		metricSpec{"serve.queue_wait_ms.p99", "ms", "lower"},
		metricSpec{"serve.batch_size_mean", "count", "higher"},
		metricSpec{"serve.gen_late_ms.max", "ms", "lower"},
		metricSpec{"gradient.tables_s", "s", "lower"},
		metricSpec{"nn.model_build_s", "s", "lower"},
		metricSpec{"data.synth_s", "s", "lower"},
		metricSpec{"serve.load_s", "s", "lower"},
		metricSpec{"trace_overhead_frac", "frac", "lower"},
	)
}()

// complete checks the metrics a workload set against the list for the
// run's mode: an end-to-end metric must be present, a per-layer one is
// 0 where the workload does not produce it, and nothing else may
// appear.
func (b *bench) complete() error {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	known := map[string]string{}
	for _, s := range want {
		known[s.name] = s.unit
		got, ok := b.metrics[s.name]
		switch {
		case !ok && b.trace:
			b.metrics[s.name] = metric{Value: 0, Unit: s.unit}
		case !ok:
			return fmt.Errorf("workload did not report %s", s.name)
		case got.Unit != s.unit:
			return fmt.Errorf("metric %s reported in %s, want %s", s.name, got.Unit, s.unit)
		}
	}
	for name := range b.metrics {
		if _, ok := known[name]; !ok {
			return fmt.Errorf("workload reported unlisted metric %s", name)
		}
	}
	return nil
}
