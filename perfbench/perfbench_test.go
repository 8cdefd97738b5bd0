package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	var d dist
	for _, x := range []float64{5, 1, 4, 2, 3} {
		d.add(x)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := d.q(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if d.n() != 5 {
		t.Errorf("n = %d, want 5", d.n())
	}
	var empty dist
	if !math.IsNaN(empty.q(0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestQuantileCountsFailuresAsMissingTheLimit(t *testing.T) {
	var d dist
	for i := 0; i < 98; i++ {
		d.add(1)
	}
	d.add(math.Inf(1))
	d.add(math.Inf(1))
	if got := d.q(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %g, want +Inf", got)
	}
	if got := d.mean(); got != 1 {
		t.Errorf("mean = %g, want 1 (failures excluded)", got)
	}
}

// curve is a synthetic latency curve: p99 = base / (1 - rate/sat), +Inf at
// saturation or beyond.
func curve(base, sat float64) func(float64) step {
	return func(rate float64) step {
		p99 := math.Inf(1)
		if rate < sat {
			p99 = base / (1 - rate/sat)
		}
		return step{Rate: rate, P99us: p99, Achieved: 1}
	}
}

func TestSearchCapacityFindsCrossing(t *testing.T) {
	probe := curve(1000, 20000)
	// p99 = 5000 at rate 16000.
	got, steps := searchCapacity(probe(4000), 5000, 1.25, 8, 10, probe)
	if math.Abs(got-16000)/16000 > 0.05 {
		t.Errorf("capacity = %g, want ≈16000 (steps %+v)", got, steps)
	}
	if len(steps) > 11 {
		t.Errorf("%d steps exceed the probe budget", len(steps))
	}
}

func TestSearchCapacityDescendsBelowFailingBase(t *testing.T) {
	probe := curve(1000, 20000)
	got, _ := searchCapacity(probe(19000), 5000, 1.25, 8, 10, probe)
	if math.Abs(got-16000)/16000 > 0.05 {
		t.Errorf("capacity = %g, want ≈16000", got)
	}
}

func TestSearchCapacityCeilingAndBacklog(t *testing.T) {
	probe := curve(1000, 1e9)
	got, _ := searchCapacity(probe(1000), 5000, 2, 4, 10, probe)
	if got != 4000 {
		t.Errorf("capacity = %g, want the 4000 ceiling", got)
	}
	// A growing backlog fails a step even when its p99 meets the limit.
	backlog := func(rate float64) step {
		s := step{Rate: rate, P99us: 100, Achieved: 1}
		if rate > 3000 {
			s.Achieved = 0.9
		}
		return s
	}
	got, _ = searchCapacity(backlog(1000), 5000, 2, 8, 10, backlog)
	if got != 2000 {
		t.Errorf("capacity = %g, want 2000 (last rung before the backlog)", got)
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	v := putValue(42, 3, 1234)
	if len(v) != valueSize {
		t.Fatalf("value size %d, want %d", len(v), valueSize)
	}
	id, i, prefill, err := parseValue(42, v)
	if err != nil || prefill || id != 3 || i != 1234 {
		t.Errorf("parseValue = %d %d %v %v", id, i, prefill, err)
	}
	if _, _, prefill, err := parseValue(7, prefillValue(7)); err != nil || !prefill {
		t.Errorf("prefill value not recognized: %v", err)
	}
	if _, _, _, err := parseValue(41, v); err == nil {
		t.Error("a value of another key was accepted")
	}
}

func TestValidateRejectsUnissuedAndForeignValues(t *testing.T) {
	w, _ := findWorkload("read-zipf")
	r := newRunner(w, 1)
	s := r.newSchedule(1000, time.Second)
	put := -1
	for i, o := range s.ops {
		if o.put {
			put = i
			break
		}
	}
	if put < 0 {
		t.Fatal("schedule has no Put")
	}
	k := int(s.ops[put].key)
	r.validate(k, s.ops[put].val)
	if r.err() == nil {
		t.Error("a value whose Put was not yet issued was accepted")
	}
	r = newRunner(w, 1)
	s = r.newSchedule(1000, time.Second)
	r.issued[s.id].Store(int64(len(s.ops)))
	r.validate(k, s.ops[put].val)
	r.validate(k, prefillValue(k))
	r.validate(k, "")
	if err := r.err(); err != nil {
		t.Errorf("valid results rejected: %v", err)
	}
	r.validate((k+1)%w.Keys, s.ops[put].val)
	if r.err() == nil {
		t.Error("another key's value was accepted")
	}
}

func TestHistoryGate(t *testing.T) {
	ok := []record{
		{put: true, val: "a", start: 0, end: 10},
		{put: false, val: "a", start: 5, end: 20},
		{put: true, val: "b", start: 15, end: 30},
		{put: false, val: "b", start: 31, end: 40},
		{put: false, val: "a", start: 16, end: 25}, // concurrent with b's write
	}
	h := &historyLog{keys: map[int]*keyHistory{0: {recs: ok}}}
	if _, err := h.check([]string{"k0"}); err != nil {
		t.Errorf("atomic history rejected: %v", err)
	}
	stale := append(append([]record(nil), ok...), record{put: false, val: "a", start: 41, end: 50})
	h = &historyLog{keys: map[int]*keyHistory{0: {recs: stale}}}
	if _, err := h.check([]string{"k0"}); err == nil {
		t.Error("stale read after a completed newer read was accepted")
	}
}

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"get_p50_us", "store.flush_fast_frac", "core.rounds.AREAD1_per_op", "setup_s"} {
		if !validMetricName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", "a b", "p99{op=get}", strings.Repeat("a", 65)} {
		if validMetricName(name) {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks the
// result line: correct, and exactly the metrics BENCHMARK.json declares for
// the mode, with their units and finite values.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[string][]decl{"0": bench.EndToEnd, "1": bench.PerLayer}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"-workload", w.Name, "-seed", "7", "-seconds", "1", "-trace", trace}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w.Name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) == 0 {
				t.Errorf("%s trace=%s: result %+v", w.Name, trace, res)
			}
			if len(res.Metrics) != len(declared[trace]) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(declared[trace]))
			}
			for _, d := range declared[trace] {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !validMetricName(d.Name) || math.IsNaN(m.Value) || m.Value >= math.MaxFloat64 {
					t.Errorf("%s trace=%s: metric %q = %+v (present %v), declared unit %q", w.Name, trace, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}

// atomicHistory simulates an atomic register on one key: n operations (a
// share puts of them Puts) arriving about every gap ns and taking up to
// 3·gap, with every 1000th arrival releasing a burst of `burst`
// simultaneous operations as a stalled generator does; each takes effect at
// a random point inside its interval.
func atomicHistory(n int, puts float64, gap int64, burst int, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	type lin struct {
		at  int64
		idx int
	}
	recs := make([]record, n)
	lins := make([]lin, n)
	t := int64(0)
	for i := range recs {
		if i%1000 == 0 || i%1000 >= burst {
			t += 1 + rng.Int63n(2*gap)
		}
		d := 1 + rng.Int63n(3*gap)
		recs[i] = record{put: rng.Float64() < puts, start: t, end: t + d}
		lins[i] = lin{t + rng.Int63n(d), i}
	}
	sort.Slice(lins, func(a, b int) bool { return lins[a].at < lins[b].at })
	recs[lins[0].idx].put = true
	cur := ""
	for _, l := range lins {
		if recs[l.idx].put {
			cur = fmt.Sprintf("v%d", l.idx)
		}
		recs[l.idx].val = cur
	}
	return recs
}

// TestHistoryGateBounded decides full-size histories of the workloads'
// shapes — a hot key of the read-mostly workloads, with generator bursts, and
// a write-mostly key — and catches a stale read planted in each, well inside
// a run's time budget.
func TestHistoryGateBounded(t *testing.T) {
	for _, c := range []struct {
		puts  float64
		burst int
	}{{0.02, 20}, {0.1, 20}, {0.9, 1}} {
		puts := c.puts
		recs := atomicHistory(histOps, puts, 400, c.burst, 1)
		h := &historyLog{keys: map[int]*keyHistory{0: {recs: recs}}}
		start := time.Now()
		if _, err := h.check([]string{"k0"}); err != nil {
			t.Fatalf("puts %g: simulated atomic history rejected: %v", puts, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("puts %g: checking %d ops took %v", puts, histOps, d)
		}
		// A Get long after the end that returns the first write's value
		// is stale.
		var first string
		for _, rc := range recs {
			if rc.put {
				first = rc.val
				break
			}
		}
		end := recs[len(recs)-1].end
		bad := append(recs, record{val: first, start: end + 1e6, end: end + 2e6})
		h = &historyLog{keys: map[int]*keyHistory{0: {recs: bad}}}
		if _, err := h.check([]string{"k0"}); err == nil {
			t.Errorf("puts %g: stale read accepted", puts)
		}
	}
}
