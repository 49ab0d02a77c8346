package main

// Workloads
//
// All three run in one process, use the mul7u_rm6 multiplier and the
// reduced experiment geometry (train.ReducedScale: 16x16 inputs, width
// 0.125, batch 32, 960/240 synthetic split, 10 classes), with Shards 0.
// Every input (data, initial weights, shuffling, arrival times, request
// images) is derived from --seed through subSeed.
//
//   - retrain_vgg11_smoothdiff: train.Run of VGG11 with the paper's
//     smoothdiff gradient tables, 1 epoch per timed run. Convolution
//     backward on the fused gather tier is about half of the step and
//     batch norm is present, so a backward-kernel change shows here.
//   - retrain_lenet_ste: train.Run of LeNet with the STE baseline, 3
//     epochs per timed run. Convolution forward glue (quantize and
//     im2col) dominates the step and every backward call takes the small
//     tier, so the fused and affine tiers do no work: a fused-kernel
//     change should show no change here, while quantize-once and
//     small-tier changes should.
//   - serve_vgg11_open: serve.Load of VGG11 with one replica and the
//     default batcher (MaxBatch 8, MaxDelay 2ms), driven open loop by one
//     generator with Poisson arrivals at 500 req/s, about half the
//     replica's capacity. Latency runs from each request's due time. The
//     inference-only path: no backward and no optimizer, and the only
//     workload that exercises batcher queueing and coalescing, so a
//     backward change should show no change here.
//
// A timed phase repeats its unit of work until --seconds have passed: a
// fresh model trained by one train.Run for the retrain workloads (at
// least one run, after one untimed warm-up epoch), one open-loop
// schedule of 500 x --seconds requests for serving. Set-up (tables, data, model build or serve.Load with its
// warm-up) is repeated five times and setup_s is the median.
//
// End-to-end metrics (--trace 0)
//
// BENCHMARK.json requires every end-to-end metric from every workload,
// so each metric is defined on the workload's unit of work:
//
//	setup_s           median set-up time
//	wall_s            retrain: median wall time of one train.Run
//	                  (training and per-epoch evaluation); serve: start
//	                  of the schedule to the last completion
//	throughput_per_s  retrain: training samples per second of the
//	                  train phase (median over runs); serve: completed
//	                  requests per second of wall_s
//	p50_ms, p99_ms    retrain: optimizer-step latency, the interval
//	                  between consecutive training forward passes of an
//	                  epoch (data, forward, loss, backward, Adam),
//	                  pooled over runs; serve: request latency from due
//	                  time to completion
//	ok_frac           retrain: accepted steps / attempted steps; serve:
//	                  requests answered correctly within 50ms of their
//	                  due time / attempted (refusals and errors miss)
//	peak_rss_mb       VmHWM of the process
//
// The failed share of operations is failed / attempted of the result
// line. A skipped or rolled-back step, a failed or refused request, and
// every operation of a run that breaks the correctness gate count as
// failed.
//
// Correctness gate
//
//   - Retrain: no skipped steps and no rollbacks; final top-1 above
//     chance; per-epoch losses and top-1/top-5 of every run, traced or
//     not, bit-equal to the first run of the seed; backward tiers as the
//     rationale claims (VGG11: fused and small both used; LeNet: only
//     small, fused and affine idle).
//   - Serve: every response's scores bit-equal to the scores the same
//     image got when served alone before the timed phase; forward
//     kernels only, zero backward calls.
//
// A violation makes the result's "correct" false and the exit code 1.
//
// Per-layer metrics (--trace 1) and what each should move
//
// The traced run times the layers from outside the program. Retrain:
// untraced and traced train.Run calls alternate; in a traced one every
// leaf layer of the model is wrapped in a timing nn.Layer (recursing
// into Sequential and Residual). Layer and phase times are seconds per
// train.Run. Every workload then probes standalone inference replicas
// of its model: a plain one at batch 1 and 8, alternating with a
// wrapped one at batch 8; inference times are per batch-8 Predict, and
// on serve they are the layers' forward times. GEMM time is estimated
// by replaying (*nn.Op).ForwardGEMM and BackwardGEMM at every recorded
// convolution shape (backward with the last recorded output gradient,
// whose zeros the kernels skip). A metric that does not apply to a
// workload reads 0: batch norm on LeNet, backward and train.* on serve,
// serve.* on the retrain workloads.
//
//	nn.approxconv.fwd_s, .glue_fwd_s, .gemm_fwd_s
//	    convolution forward (inference on serve), its replayed GEMM
//	    part and the rest (quantize, im2col, layout): throughput_per_s
//	    on retrain_lenet_ste most, p50_ms on serve_vgg11_open
//	nn.approxconv.bwd_s, .gemm_bwd_s
//	    throughput_per_s on retrain_vgg11_smoothdiff, less on LeNet,
//	    nothing on serve
//	nn.approxconv.infer_s
//	    serve p50_ms and p99_ms
//	nn.batchnorm.{fwd,bwd}_s (VGG11 only), nn.relu.*, nn.maxpool.*,
//	nn.linear.*
//	    throughput_per_s of the retrain workloads
//	nn.predict_ms.b1, .b8
//	    standalone Predict at batch 1 and at the batcher's MaxBatch:
//	    serve p99_ms
//	nn.kernel.{fwd,bwd}_calls.<tier>
//	    nn_kernel_dispatch_total per untraced train.Run, or over the
//	    open-loop schedule: whichever metric the tier's workload carries
//	train.phase_train_s, .phase_eval_s
//	    train_phase_seconds_total per traced train.Run: wall_s
//	train.step_other_s
//	    train phase minus wrapped layer time (loss, Adam, data
//	    iterator): wall_s
//	train.alloc_bytes_per_step, .mallocs_per_step, .gc_cycles
//	    runtime.MemStats deltas around untraced runs: throughput_per_s
//	    on retrain_lenet_ste
//	train.top1_pct, .final_loss
//	    the trained model's final top-1 and loss, deterministic per seed
//	serve.queue_wait_ms.p50, .p99 (Result.Queued),
//	serve.batch_size_mean (Result.BatchSize)
//	    serve p99_ms
//	serve.gen_late_ms.max
//	    how far the generator fell behind its schedule; a check only
//	gradient.tables_s, nn.model_build_s, data.synth_s, serve.load_s
//	    the parts of setup_s: train.OpForSpec (with the kernels' padded
//	    tables), train.BuildModel, data.Synthetic, serve.Load with
//	    warm-up; on serve, tables and model build are the steps
//	    serve.Load performs, timed on the standalone replica's build
//	trace_overhead_frac
//	    traced over untraced median wall_s (serve: batch-8 Predict),
//	    minus 1
