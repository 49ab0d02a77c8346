// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in process through the public APIs (train.Run,
// serve.Load, serve.Batcher.Do), checks the outputs, and prints the
// workload's metrics: every end-to-end metric of BENCHMARK.json with
// --trace 0, every per-layer metric with --trace 1. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// A wrong output makes "correct" false and the exit code 1; a run that
// cannot set up exits 2 without printing a result. See doc.go for the
// workloads and for which end-to-end metric each per-layer metric
// should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload retrain_vgg11_smoothdiff --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and what it has found so far.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// set records a metric. Every value must be finite: JSON has no NaN.
func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.problem("metric %s is not finite (%v)", name, v)
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a correctness violation; the run then reports
// correct=false and exits 1.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"retrain_vgg11_smoothdiff": retrainVGG11.run,
	"retrain_lenet_ste":        retrainLeNet.run,
	"serve_vgg11_open":         runServe,
}

func main() {
	workload := flag.String("workload", "", "workload name (retrain_vgg11_smoothdiff, retrain_lenet_ste, serve_vgg11_open)")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		metrics: map[string]metric{},
	}
	if err := drive(context.Background(), b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := b.complete(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(2)
	}
	rep := report{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("%-34s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", fields[1], err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// setPeakRSS records peak_rss_mb.
func (b *bench) setPeakRSS() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", "MB", mb)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
