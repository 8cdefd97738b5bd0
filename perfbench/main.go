// Command perfbench is the repository benchmark: it drives the keyed Store
// open-loop from one process on a named workload, checks every Get result
// and the atomicity of a seeded sample of keys, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced run) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through perfbench/run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload read-zipf --seed 1 --seconds 35 --trace 0
//
// A correctness violation prints the witness to standard error and exits 1
// without metrics. DESIGN.md records the workloads, the metrics and the layer
// each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit and, for distributions, the
// sample count it was computed from.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is one run's output.
type result struct {
	attempted, failed int
	checkedOps        int // operations decided by the atomicity checker
	metrics           []metric
	notes             []string // human-readable detail printed before the JSON line
}

func (r *result) add(name, unit string, value float64, n int) {
	if !validMetricName(name) {
		panic("perfbench: invalid metric name " + name) // names are literals: a bug
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		// A distribution whose quantile lies among failed ops (+Inf):
		// report the largest finite float so the JSON stays valid and the
		// number still reads as "limit missed".
		value = math.MaxFloat64
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same operations, keys and values")
	seconds := fs.Int("seconds", 35, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload %s, -seconds ≥ 1, -trace 0|1\n", workloadNames())
		return 2
	}
	measure := measureEndToEnd
	if *trace == 1 {
		measure = measureLayers
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.Name, *seed, err)
		return 1
	}
	report(stdout, w, *seed, *trace == 1, res)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, " | ")
}

// report prints the host fingerprint, the metrics as a table with sample
// counts, and last the JSON result line.
func report(out io.Writer, w Workload, seed int64, traced bool, res *result) {
	h := hostInfo()
	fmt.Fprintf(out, "# perfbench %s seed=%d traced=%v rate=%g/s p99-limit=%gus\n", w.Name, seed, traced, w.Rate, w.LimitUs)
	fmt.Fprintf(out, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q fsync=%s inflight-slots=%d\n",
		h.nproc, h.gomaxprocs, h.goVersion, h.cpu, fsyncMode, slots)
	fmt.Fprintf(out, "# correctness: every Get validated; %d ops on %d sampled keys atomic (checker.CheckAtomicMW)\n", res.checkedOps, histKeys)
	for _, n := range res.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	for _, m := range res.metrics {
		samples := ""
		if m.n > 0 {
			samples = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(out, "%-36s %16.4f %-6s %s\n", m.name, m.value, m.unit, samples)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(res.metrics))
	for _, m := range res.metrics {
		metrics[m.name] = val{Value: m.value, Unit: m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{true, res.attempted, res.failed, metrics})
	fmt.Fprintln(out, string(line))
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size so far, MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Run shape: a warm-up at the fixed rate fills caches and builds every
// shard's handles before anything is measured.
const (
	warmup = time.Second
	// Set-up repeats at least minSetups times and until setupBudget of
	// set-up time has passed (at most maxSetups), so that even a set-up of a
	// few milliseconds reports a median of many.
	minSetups   = 9
	maxSetups   = 101
	setupBudget = time.Second
	growth      = 1.4 // capacity ladder ratio
	rungs       = 6   // capacity ladder probes per run
	maxRatio    = 8   // capacity ladder ceiling, as a multiple of the fixed rate
)

// measureEndToEnd is the untraced run: set-up (repeated, median reported),
// then the whole measured time at the fixed rate.
func measureEndToEnd(w Workload, seed int64, total time.Duration) (*result, error) {
	r := newRunner(w, seed)
	var setups dist
	var e *env
	for spent := 0.0; setups.n() < minSetups || (spent < setupBudget.Seconds() && setups.n() < maxSetups); {
		if e != nil {
			e.close()
		}
		r.hist.reset()
		t := time.Now()
		var err error
		if e, err = setup(r, false, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t).Seconds()
		setups.add(d)
		spent += d
	}
	defer e.close()
	r.store = e.store

	res := &result{}
	r.run(r.newSchedule(w.Rate, warmup))
	cpu0 := cpuTime()
	p := r.run(r.newSchedule(w.Rate, total))
	cpu := cpuTime() - cpu0
	rss := maxRSSMB()
	res.attempted, res.failed = len(p.sched.ops), p.failed

	get, put, _, _, _ := p.latencies()
	res.add("get_p50_us", "us", get.q(0.50), get.n())
	res.add("put_p50_us", "us", put.q(0.50), put.n())
	completed := len(p.sched.ops) - p.failed
	res.add("cpu_us_per_op", "us", float64(cpu)/1e3/float64(max(completed, 1)), completed)
	res.add("max_rss_mb", "MiB", rss, 0)
	res.add("setup_s", "s", setups.q(0.5), setups.n())
	// The p99s follow the host's timer jitter more than the program
	// (DESIGN.md), so they are printed here ungated; the traced run reports
	// them, and the capacity they bound, per layer.
	res.notes = append(res.notes,
		fmt.Sprintf("get_p99_us=%.1f (n=%d) put_p99_us=%.1f (n=%d), not gated", get.q(0.99), get.n(), put.q(0.99), put.n()),
		fmt.Sprintf("error_frac=%g (%d failed of %d attempted)", float64(res.failed)/float64(res.attempted), res.failed, res.attempted))
	return res, r.gate(res)
}

// capacity runs the capacity ladder from the fixed-rate phase base for d.
func (r *runner) capacity(base *phase, d time.Duration, res *result) (float64, []step) {
	probe := func(rate float64) step {
		ph := r.run(r.newSchedule(rate, d/rungs))
		res.attempted += len(ph.sched.ops)
		res.failed += ph.failed
		return ph.step(r.w.LimitUs)
	}
	return searchCapacity(base.step(r.w.LimitUs), r.w.LimitUs, growth, maxRatio, rungs, probe)
}

// gate runs the correctness checks: every Get result was valid, and every
// sampled key's history is atomic.
func (r *runner) gate(res *result) error {
	if err := r.err(); err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	n, err := r.hist.check(r.names)
	if err != nil {
		return fmt.Errorf("correctness: %w", err)
	}
	res.checkedOps = n
	return nil
}

// sortedNames returns m's keys in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
