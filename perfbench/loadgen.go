package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic"
)

// runner drives one Store open-loop and checks what it returns. Every
// timestamp is nanoseconds on the monotonic clock since base, shared by all
// phases of the run.
type runner struct {
	w     Workload
	seed  int64
	base  time.Time
	names []string // keyName of every key index
	store *robustatomic.Store

	scheds []*schedule // by schedule id; a Get's value must name an issued Put of one of these
	issued []*atomic.Int64
	hist   *historyLog

	mu        sync.Mutex
	violation error // first invalid Get result
}

func newRunner(w Workload, seed int64) *runner {
	r := &runner{w: w, seed: seed, base: time.Now()}
	r.names = make([]string, w.Keys)
	for k := range r.names {
		r.names[k] = keyName(k)
	}
	r.hist = newHistoryLog(w.Keys, seed)
	return r
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// newSchedule draws the next phase's inputs: d of load at rate ops/s.
func (r *runner) newSchedule(rate float64, d time.Duration) *schedule {
	s := r.w.makeSchedule(r.seed, len(r.scheds), rate, d)
	r.scheds = append(r.scheds, s)
	r.issued = append(r.issued, new(atomic.Int64))
	return s
}

// fail records the first correctness violation.
func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.violation == nil {
		r.violation = err
	}
	r.mu.Unlock()
}

func (r *runner) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.violation
}

// validate checks one Get result for key k: ⊥, the prefill value, or the
// value of a Put to k that the generator had already issued.
func (r *runner) validate(k int, v string) {
	if v == "" {
		return
	}
	id, i, prefill, err := parseValue(k, v)
	if err == nil && !prefill {
		switch {
		case id < 0 || id >= len(r.scheds) || i < 0 || i >= len(r.scheds[id].ops):
			err = fmt.Errorf("Get(%s) returned %q, which no scheduled Put writes", r.names[k], v)
		case !r.scheds[id].ops[i].put || int(r.scheds[id].ops[i].key) != k:
			err = fmt.Errorf("Get(%s) returned %q, which no Put of that key writes", r.names[k], v)
		case int64(i) >= r.issued[id].Load():
			err = fmt.Errorf("Get(%s) returned %q before its Put was issued", r.names[k], v)
		}
	}
	if err != nil {
		r.fail(err)
	}
}

// phase is the outcome of offering one schedule: per-op call start and end
// (end < 0 marks a failed op, at -end).
type phase struct {
	sched       *schedule
	t0          int64 // when op 0 was due
	start, end  []int64
	failed      int
	inflightMax int64
}

// due returns when op i was due.
func (p *phase) due(i int) int64 {
	return p.t0 + int64(float64(i)*float64(time.Second)/p.sched.rate)
}

// run offers schedule s open-loop: op i is handed to a free executor at its
// due time regardless of how earlier ops fared, and run returns once every
// op has completed.
func (r *runner) run(s *schedule) *phase {
	n := len(s.ops)
	p := &phase{sched: s, start: make([]int64, n), end: make([]int64, n)}
	issued := r.issued[s.id]
	// Sized to the number of sends: the dispatcher never blocks, so the
	// arrival process stays on schedule however far the executors fall
	// behind.
	ch := make(chan int, n)
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		maxIn    atomic.Int64
		failed   atomic.Int64
	)
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				o := &s.ops[i]
				key := int(o.key)
				kept, st := r.hist.admit(key, r.now)
				c := inflight.Add(1)
				for m := maxIn.Load(); c > m && !maxIn.CompareAndSwap(m, c); m = maxIn.Load() {
				}
				var (
					v   string
					err error
				)
				if o.put {
					err = r.store.Put(r.names[key], o.val)
				} else {
					v, err = r.store.Get(r.names[key])
				}
				en := r.now()
				inflight.Add(-1)
				p.start[i] = st
				if err != nil {
					p.end[i] = -en
					failed.Add(1)
				} else {
					p.end[i] = en
					if !o.put {
						r.validate(key, v)
					}
				}
				if kept {
					rec := record{put: o.put, start: st, end: en, failed: err != nil}
					if o.put {
						rec.val = o.val
					} else {
						rec.val = v
					}
					r.hist.add(key, rec)
				}
			}
		}()
	}
	interval := float64(time.Second) / s.rate
	p.t0 = r.now()
	for i := 0; i < n; i++ {
		due := p.t0 + int64(float64(i)*interval)
		if d := due - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		issued.Store(int64(i + 1))
		ch <- i
	}
	close(ch)
	wg.Wait()
	p.failed = int(failed.Load())
	p.inflightMax = maxIn.Load()
	return p
}

// latencies returns the Get and Put latencies from due time, µs (failed ops
// as +Inf), plus generator lateness (due → call start) and in-call service
// time, µs, over every op.
func (p *phase) latencies() (get, put, lag, svcGet, svcPut dist) {
	for i, o := range p.sched.ops {
		due := p.due(i)
		lat := math.Inf(1)
		if p.end[i] >= 0 {
			lat = float64(p.end[i]-due) / 1e3
		}
		end := p.end[i]
		if end < 0 {
			end = -end
		}
		lag.add(float64(p.start[i]-due) / 1e3)
		if o.put {
			put.add(lat)
			svcPut.add(float64(end-p.start[i]) / 1e3)
		} else {
			get.add(lat)
			svcGet.add(float64(end-p.start[i]) / 1e3)
		}
	}
	return
}

// step summarizes the phase as one capacity-search probe: p99 over all ops
// and the share of ops completed within the latency limit of their due
// time's window end (a growing backlog leaves ops unfinished).
func (p *phase) step(limitUs float64) step {
	var all dist
	deadline := p.due(len(p.sched.ops)-1) + int64(limitUs*1e3)
	done := 0
	for i := range p.sched.ops {
		if p.end[i] < 0 {
			all.add(math.Inf(1))
			continue
		}
		all.add(float64(p.end[i]-p.due(i)) / 1e3)
		if p.end[i] <= deadline {
			done++
		}
	}
	return step{Rate: p.sched.rate, P99us: all.q(0.99), Achieved: float64(done) / float64(len(p.sched.ops))}
}
