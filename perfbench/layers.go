package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/obs"
	"robustatomic/internal/shard"
)

// traceRing is the Tracer's ring of completed op traces. The collector
// drains it every pollEvery, so it only has to hold a few hundred
// milliseconds of traced operations.
const (
	traceRing = 4096
	pollEvery = 10 * time.Millisecond
	// settle is how long after an op ends the collector waits before reading
	// its per-object events, so replies that arrive after the quorum are in.
	settle = 20 * time.Millisecond
	// quorumReplies is S − t, the replies a round waits for.
	quorumReplies = 3*faults + 1 - faults
)

// roundLabels are the protocol round labels reported per op (the labels
// proto_rounds_total carries on these workloads); labels seen outside this
// list are named in the report notes.
var roundLabels = []string{"AREAD1", "AREAD2", "BATCH", "PREWRITE", "READ1", "READ2", "WRITE", "WVAL"}

// measureLayers is the traced run. After the warm-up, the first third runs
// at the fixed rate with the Tracer installed but not sampling: obs
// counters, runtime allocation and GC, generator lateness, latency and
// in-call service times and the untraced CPU cost come from it. The second
// third samples every Store flush and shard read into the Tracer, counts
// rounds with the RoundHook and times every WAL append through the persist
// wrapper; queue waits, round times, self times and the traced CPU cost come
// from it. The last third climbs the capacity ladder.
func measureLayers(w Workload, seed int64, total time.Duration) (*result, error) {
	r := newRunner(w, seed)
	var persistOn atomic.Bool
	e, err := setup(r, true, &persistOn)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	r.store = e.store
	res := &result{}
	r.run(r.newSchedule(w.Rate, warmup))

	// Untraced third.
	third := total / 3
	snap0 := obs.Default.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := gcCPU()
	waiters := pollMax(obs.Default.Gauge("tcpnet_inflight_waiters"))
	cpu0 := cpuTime()
	pu := r.run(r.newSchedule(w.Rate, third))
	cpuU := cpuTime() - cpu0
	waitersMax := waiters()
	gc1, all1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	snap1 := obs.Default.Snapshot()

	// Traced third.
	col := startCollector(e.tracer, r.base)
	rounds0 := e.rounds.Load()
	e.tracer.SetSample(1)
	persistOn.Store(true)
	cpu1 := cpuTime()
	pt := r.run(r.newSchedule(w.Rate, third))
	cpuT := cpuTime() - cpu1
	e.tracer.SetSample(0)
	persistOn.Store(false)
	rounds := e.rounds.Load() - rounds0
	traces := col.stop()

	for _, p := range []*phase{pu, pt} {
		res.attempted += len(p.sched.ops)
		res.failed += p.failed
	}

	// Last third: the capacity ladder, untraced.
	capacity, steps := r.capacity(pu, total-2*third, res)
	res.add("loadgen.capacity_qps", "ops/s", capacity, len(steps))
	var sb strings.Builder
	for _, s := range steps {
		fmt.Fprintf(&sb, " %.0f/s:p99=%.0fus,done=%.3f", s.Rate, s.P99us, s.Achieved)
	}
	res.notes = append(res.notes, "capacity ladder:"+sb.String())

	// Untraced-third counts.
	n := float64(len(pu.sched.ops))
	var puts, gets float64
	for _, o := range pu.sched.ops {
		if o.put {
			puts++
		} else {
			gets++
		}
	}
	ctr := func(name string) float64 { return float64(snap1.Counters[name] - snap0.Counters[name]) }
	histSum := func(name string) (sum, count float64) {
		a, b := snap0.Hists[name], snap1.Hists[name]
		return b.Mean*float64(b.Count) - a.Mean*float64(a.Count), float64(b.Count - a.Count)
	}
	wall := float64(pu.lastEnd()-pu.t0) / 1e3 // µs

	get, put, lag, svcGet, svcPut := pu.latencies()
	res.add("loadgen.lag_p50_us", "us", lag.q(0.50), lag.n())
	res.add("loadgen.lag_p99_us", "us", lag.q(0.99), lag.n())
	res.add("loadgen.inflight_max", "count", float64(pu.inflightMax), 0)
	res.add("loadgen.get_p99_us", "us", get.q(0.99), get.n())
	res.add("loadgen.put_p99_us", "us", put.q(0.99), put.n())

	res.add("store.put_service_p50_us", "us", svcPut.q(0.50), svcPut.n())
	res.add("store.put_service_p99_us", "us", svcPut.q(0.99), svcPut.n())
	res.add("store.get_service_p50_us", "us", svcGet.q(0.50), svcGet.n())
	res.add("store.get_service_p99_us", "us", svcGet.q(0.99), svcGet.n())
	fast, cert := ctr("store_flush_fast_total"), ctr("store_flush_certified_total")
	noop, failed := ctr("store_flush_noop_total"), ctr("store_flush_failed_total")
	flushes := fast + cert + noop + failed
	res.add("store.puts_per_flush", "ratio", ratio(puts, flushes), int(flushes))
	res.add("store.flush_fast_frac", "frac", ratio(fast, flushes), int(flushes))
	res.add("store.flush_certified_frac", "frac", ratio(cert, flushes), int(flushes))
	res.add("store.flush_noop_frac", "frac", ratio(noop, flushes), int(flushes))
	res.add("store.flush_failed_frac", "frac", ratio(failed, flushes), int(flushes))
	coalesced := ctr("store_get_coalesced_total")
	reads := gets - coalesced // shard reads: Gets that ran a protocol read
	cacheHits := ctr("store_get_cache_hit_total")
	res.add("store.get_coalesced_frac", "frac", ratio(coalesced, gets), int(gets))
	res.add("store.get_elided_frac", "frac", ratio(ctr("store_get_elided_total"), reads), int(reads))
	res.add("store.get_cache_hit_frac", "frac", ratio(cacheHits, reads), int(reads))

	labelRounds := map[string]float64{}
	for name, v := range snap1.Counters {
		if strings.HasPrefix(name, "proto_rounds_total{") {
			i := strings.Index(name, `label="`)
			label := strings.TrimSuffix(name[i+len(`label="`):], `"}`)
			labelRounds[label] += float64(v - snap0.Counters[name])
		}
	}
	for _, l := range roundLabels {
		res.add("core.rounds."+l+"_per_op", "count", labelRounds[l]/n, 0)
		delete(labelRounds, l)
	}
	for _, l := range sortedNames(labelRounds) {
		if labelRounds[l] > 0 {
			res.notes = append(res.notes, fmt.Sprintf("rounds labelled %s: %.4f per op (not a reported metric)", l, labelRounds[l]/n))
		}
	}

	subSum, subCount := histSum("proto_combine_batch_subs")
	res.add("proto.subs_per_batch", "count", ratio(subSum, subCount), int(subCount))
	res.add("live.rounds_per_op", "count", (ctr("live_rounds_inline_total")+ctr("live_rounds_async_total"))/n, 0)
	res.add("tcpnet.rx_bytes_per_op", "B", ctr("tcpnet_client_rx_bytes_total")/n, 0)
	res.add("tcpnet.tx_bytes_per_op", "B", ctr("tcpnet_client_tx_bytes_total")/n, 0)
	res.add("tcpnet.frames_per_op", "count", (ctr("tcpnet_server_requests_total")+ctr("tcpnet_server_batch_requests_total"))/n, 0)
	res.add("tcpnet.inflight_waiters_max", "count", float64(waitersMax), 0)
	res.add("tcpnet.timeouts", "count", ctr("tcpnet_round_timeout_total"), 0)
	res.add("tcpnet.redials", "count", ctr("tcpnet_redials_total"), 0)

	engines := float64(len(e.persist))
	appends, walBytes := ctr("persist_wal_appends_total"), ctr("persist_wal_bytes_total")
	fsyncs := ctr("persist_fsyncs_total")
	fsyncUs, _ := histSum("persist_fsync_us")
	res.add("persist.appends_per_put", "ratio", ratio(appends, puts), int(appends))
	res.add("persist.wal_bytes_per_put", "B", ratio(walBytes, puts), 0)
	res.add("persist.write_amp", "ratio", ratio(walBytes, puts*valueSize), 0)
	res.add("persist.fsyncs_per_op", "ratio", fsyncs/n, int(fsyncs))
	res.add("persist.appends_per_fsync", "ratio", ratio(appends, fsyncs), int(fsyncs))
	res.add("persist.compactions", "count", ctr("persist_compactions_total"), 0)
	res.add("persist.fsync_busy_frac", "frac", ratio(fsyncUs, engines*wall), 0)

	res.add("runtime.alloc_bytes_per_op", "B", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, 0)
	res.add("runtime.allocs_per_op", "count", float64(ms1.Mallocs-ms0.Mallocs)/n, 0)
	res.add("runtime.gc_cpu_frac", "frac", ratio(gc1-gc0, all1-all0), 0)

	// Traced third.
	nt := float64(len(pt.sched.ops))
	tw := tracedLayers(r, pt, traces)
	res.add("store.queue_wait_p50_us", "us", tw.queueWait.q(0.50), tw.queueWait.n())
	res.add("store.queue_wait_p99_us", "us", tw.queueWait.q(0.99), tw.queueWait.n())
	res.add("store.self_us_per_op", "us", ratio(tw.storeSelf, float64(tw.queueWait.n())), tw.queueWait.n())
	res.add("core.rounds_per_op", "count", float64(rounds)/nt, 0)
	res.add("core.rounds_per_flush", "count", ratio(tw.flushRounds, tw.flushes), int(tw.flushes))
	res.add("core.rounds_per_shard_read", "count", ratio(tw.readRounds, tw.reads), int(tw.reads))
	res.add("core.self_us_per_op", "us", tw.coreSelf/nt, 0)
	res.add("core.round_us_per_op", "us", tw.roundTime.mean()*float64(tw.roundTime.n())/nt, 0)
	res.add("core.round_p50_us", "us", tw.roundTime.q(0.50), tw.roundTime.n())
	res.add("core.round_p99_us", "us", tw.roundTime.q(0.99), tw.roundTime.n())
	res.add("core.quorum_wait_p50_us", "us", tw.quorum.q(0.50), tw.quorum.n())
	var appendUs float64
	for _, tp := range e.persist {
		appendUs += tp.appends.mean() * float64(tp.appends.n())
	}
	res.add("persist.append_busy_frac", "frac", ratio(appendUs, engines*float64(pt.lastEnd()-pt.t0)/1e3), 0)

	cu := float64(cpuU) / 1e3 / float64(max(len(pu.sched.ops)-pu.failed, 1))
	ct := float64(cpuT) / 1e3 / float64(max(len(pt.sched.ops)-pt.failed, 1))
	res.add("obs.cpu_us_per_op_untraced", "us", cu, len(pu.sched.ops))
	res.add("obs.cpu_us_per_op_traced", "us", ct, len(pt.sched.ops))
	res.add("obs.trace_overhead_frac", "frac", ct/cu-1, 0)
	if tw.unmatched > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d traced ops found no covering FLUSH/GET trace (dropped from the ring)", tw.unmatched))
	}

	enc, dec, size, err := codecCost(r)
	if err != nil {
		return nil, err
	}
	res.add("shard.table_bytes_mean", "B", size, shards)
	res.add("shard.encode_us_per_table", "us", enc, shards)
	res.add("shard.decode_us_per_table", "us", dec, shards)
	res.add("shard.codec_us_per_op", "us", (enc*(fast+cert)+dec*(reads-cacheHits))/n, 0)
	return res, r.gate(res)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lastEnd is when the phase's last op completed.
func (p *phase) lastEnd() int64 {
	var m int64
	for _, e := range p.end {
		m = max(m, e, -e)
	}
	return m
}

// gcCPU returns the process's cumulative GC and total CPU seconds.
func gcCPU() (gc, all float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// pollMax samples g every millisecond until the returned stop function is
// called, which returns the largest value seen.
func pollMax(g *obs.Gauge) func() int64 {
	var m int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			m = max(m, g.Value())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-done
		return m
	}
}

// traceOp is the digest of one traced Store flush or shard read.
type traceOp struct {
	flush      bool
	shard      int
	start, end int64 // ns since the run's base
	rounds     []traceRound
}

type traceRound struct {
	start, end int64
	quorum     int64 // round start → quorum-th reply, ns; -1 unknown
}

// collector drains the Tracer's ring while the traced third runs.
type collector struct {
	tr          *obs.Tracer
	base        time.Time
	seen        map[uint64]bool
	ops         []traceOp
	stopc, done chan struct{}
}

func startCollector(tr *obs.Tracer, base time.Time) *collector {
	c := &collector{tr: tr, base: base, seen: map[uint64]bool{}, stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				time.Sleep(settle)
				c.drain(time.Now().Add(time.Hour))
				return
			case now := <-t.C:
				c.drain(now)
			}
		}
	}()
	return c
}

// stop ends collection and returns every digested op.
func (c *collector) stop() []traceOp {
	close(c.stopc)
	<-c.done
	return c.ops
}

// drain digests the ring's ops that ended at least settle before now.
func (c *collector) drain(now time.Time) {
	for _, op := range c.tr.Recent() {
		if c.seen[op.ID] || now.Sub(op.End) < settle {
			continue
		}
		c.seen[op.ID] = true
		if len(op.Rounds) == 0 {
			continue
		}
		// Format takes every round's event lock, ordering the events
		// appended so far (all of them, once the op has settled) before
		// the reads below.
		_ = op.Format()
		d := traceOp{
			flush: op.Name == "FLUSH",
			shard: op.Rounds[0].Reg - 1, // shard i lives on register instance i+1
			start: int64(op.Start.Sub(c.base)),
			end:   int64(op.End.Sub(c.base)),
		}
		for _, rt := range op.Rounds {
			tr := traceRound{start: int64(rt.Start.Sub(c.base)), end: int64(rt.End.Sub(c.base)), quorum: -1}
			replies := 0
			for _, ev := range rt.Events {
				if ev.Kind == "reply" {
					if replies++; replies == quorumReplies {
						tr.quorum = int64(ev.At.Sub(rt.Start))
					}
				}
			}
			d.rounds = append(d.rounds, tr)
		}
		c.ops = append(c.ops, d)
	}
}

// tracedWindow holds what the traced third's spans and traces yield.
type tracedWindow struct {
	queueWait               dist    // Store call start → covering FLUSH/GET trace start, µs
	storeSelf               float64 // Σ call time not covered by the covering trace, µs
	unmatched               int
	flushes, reads          float64
	flushRounds, readRounds float64
	coreSelf                float64 // Σ trace time outside its rounds, µs
	roundTime, quorum       dist    // µs
}

// tracedLayers joins the benchmark's own Put/Get spans with the Tracer's
// FLUSH/GET traces. A Put is covered by the first flush of its shard that
// starts after the Put was called (the one in flight at the call, if any,
// had already taken its batch); a Get likewise by the first shard read.
func tracedLayers(r *runner, p *phase, traces []traceOp) tracedWindow {
	var tw tracedWindow
	type lane struct {
		flush bool
		shard int
	}
	lanes := map[lane][]traceOp{}
	for _, t := range traces {
		lanes[lane{t.flush, t.shard}] = append(lanes[lane{t.flush, t.shard}], t)
		var inRounds int64
		for _, rd := range t.rounds {
			inRounds += rd.end - rd.start
			tw.roundTime.add(float64(rd.end-rd.start) / 1e3)
			if rd.quorum >= 0 {
				tw.quorum.add(float64(rd.quorum) / 1e3)
			}
		}
		tw.coreSelf += float64(t.end-t.start-inRounds) / 1e3
		if t.flush {
			tw.flushes++
			tw.flushRounds += float64(len(t.rounds))
		} else {
			tw.reads++
			tw.readRounds += float64(len(t.rounds))
		}
	}
	for _, l := range lanes {
		sort.Slice(l, func(i, j int) bool { return l[i].start < l[j].start })
	}
	for i, o := range p.sched.ops {
		if p.end[i] < 0 {
			continue
		}
		st, en := p.start[i], p.end[i]
		l := lanes[lane{o.put, r.store.ShardOf(r.names[o.key])}]
		j := sort.Search(len(l), func(j int) bool { return l[j].start >= st })
		if j == len(l) || l[j].start > en {
			tw.unmatched++
			continue
		}
		tw.queueWait.add(float64(l[j].start-st) / 1e3)
		covered := min(en, l[j].end) - l[j].start
		tw.storeSelf += float64(en-st-covered) / 1e3
	}
	return tw
}

// codecCost reads every key back, groups the values into the shards' final
// tables, and times shard.AppendSorted and shard.DecodeTable on each table:
// mean µs per table encode and decode, and the mean encoded size.
func codecCost(r *runner) (enc, dec, size float64, err error) {
	tables := make([]map[string]string, shards)
	for i := range tables {
		tables[i] = map[string]string{}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make(chan error, 16) // one slot per reader
	)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= r.w.Keys {
					return
				}
				v, err := r.store.Get(r.names[k])
				if err != nil {
					errs <- fmt.Errorf("read-back %s: %w", r.names[k], err)
					return
				}
				r.validate(k, v)
				mu.Lock()
				tables[r.store.ShardOf(r.names[k])][r.names[k]] = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, 0, err
	}
	var buf []byte
	used := 0
	for _, m := range tables {
		if len(m) == 0 {
			continue
		}
		used++
		keys := shard.SortedKeys(m)
		buf = shard.AppendSorted(buf[:0], keys, m)
		size += float64(len(buf))
		enc += timePerCall(func() { buf = shard.AppendSorted(buf[:0], keys, m) })
		s := string(buf)
		var derr error
		dec += timePerCall(func() {
			if _, err := shard.DecodeTable(s); err != nil {
				derr = err
			}
		})
		if derr != nil {
			return 0, 0, 0, fmt.Errorf("decode final table: %w", derr)
		}
	}
	u := float64(max(used, 1))
	return enc / u, dec / u, size / u, nil
}

// timePerCall returns f's mean duration in µs over enough calls to fill 2ms.
func timePerCall(f func()) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < 2*time.Millisecond {
		f()
		calls++
	}
	return float64(time.Since(start)) / 1e3 / float64(calls)
}
