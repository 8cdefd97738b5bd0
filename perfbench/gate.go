package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"robustatomic/internal/checker"
	"robustatomic/internal/types"
)

// histKeys is how many keys per run keep an operation history for the
// atomicity checker, and histOps bounds each history: a key keeps every
// operation invoked before its histOps-th, which is a real-time prefix of
// its history (every value a kept Get returned was written by a kept Put),
// so the checker decides exactly what it is given in bounded time.
const (
	histKeys = 8
	histOps  = 20000
)

// record is one operation on a history-sampled key: the value a Put wrote
// or a Get returned, and its call interval (ns since the run's base).
type record struct {
	put        bool
	val        string
	start, end int64
	failed     bool
}

// historyLog keeps the full histories of a seeded sample of keys.
type historyLog struct {
	keys map[int]*keyHistory
}

type keyHistory struct {
	mu       sync.Mutex
	recs     []record
	reserved int // operations admitted so far
}

func newHistoryLog(nkeys int, seed int64) *historyLog {
	h := &historyLog{keys: map[int]*keyHistory{}}
	perm := rand.New(rand.NewSource(seed ^ 0x6a09e667)).Perm(nkeys)
	for _, k := range perm[:min(histKeys, nkeys)] {
		h.keys[k] = &keyHistory{}
	}
	return h
}

// admit stamps the invocation of an operation on key k with now and reports
// whether it joins k's history; its record must then be added once it
// completes. Stamping under the key's lock makes the admitted operations
// exactly those invoked before the first refused one. The map is never
// written after construction, so concurrent lookups are safe.
func (h *historyLog) admit(k int, now func() int64) (bool, int64) {
	kh, ok := h.keys[k]
	if !ok {
		return false, now()
	}
	kh.mu.Lock()
	defer kh.mu.Unlock()
	if kh.reserved >= histOps {
		return false, now()
	}
	kh.reserved++
	return true, now()
}

// reset drops every recorded operation (a fresh cluster starts over).
func (h *historyLog) reset() {
	for _, kh := range h.keys {
		kh.mu.Lock()
		kh.recs, kh.reserved = nil, 0
		kh.mu.Unlock()
	}
}

func (h *historyLog) add(k int, rec record) {
	kh := h.keys[k]
	kh.mu.Lock()
	kh.recs = append(kh.recs, rec)
	kh.mu.Unlock()
}

// check decides every sampled key's history with the multi-writer
// atomicity checker, one segment at a time (see segments). The search budget
// only guards against a pathological history; exhausting it fails the gate
// as undecided.
func (h *historyLog) check(names []string) (ops int, err error) {
	keys := make([]int, 0, len(h.keys))
	for k := range h.keys {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		kh := h.keys[k]
		kh.mu.Lock()
		recs := append([]record(nil), kh.recs...)
		kh.mu.Unlock()
		ops += len(recs)
		for _, seg := range segments(recs) {
			budget := checker.Budget{MaxNodes: 5_000_000, Deadline: 20 * time.Second}
			if cerr := checker.CheckAtomicMWBudget(buildHistory(seg), budget); cerr != nil {
				var be *checker.BudgetError
				if errors.As(cerr, &be) {
					return ops, fmt.Errorf("key %s: atomicity undecided: %w", names[k], cerr)
				}
				return ops, fmt.Errorf("key %s: %w", names[k], cerr)
			}
		}
	}
	return ops, nil
}

// segments cuts a key's history at isolated Gets — a successful Get that
// began after every earlier operation ended and ended before the next one
// began. Every operation before such a Get precedes every operation after
// it, and in any linearization the Get reads exactly the register's value
// at the cut, so the history is atomic iff each segment is, with each
// segment after the first starting from a write of the value the cutting
// Get returned (placed on the Get's own interval). Segments keep the
// checker's search local: a segment is at most one burst of overlapping
// operations. Failed Gets, which carry no obligation, are dropped.
func segments(recs []record) [][]record {
	var ops []record
	for _, rc := range recs {
		if !(rc.failed && !rc.put) {
			ops = append(ops, rc)
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	var segs [][]record
	var cur []record
	maxEnd := int64(math.MinInt64)
	for i, rc := range ops {
		cur = append(cur, rc)
		isolated := !rc.put && rc.start > maxEnd && (i+1 == len(ops) || ops[i+1].start > rc.end)
		end := rc.end
		if rc.failed {
			end = math.MaxInt64 // a failed Put may still take effect at any later time
		}
		maxEnd = max(maxEnd, end)
		if isolated && i+1 < len(ops) {
			segs = append(segs, cur)
			cur = nil
			if rc.val != "" {
				cur = append(cur, record{put: true, val: rc.val, start: rc.start, end: rc.end})
			}
		}
	}
	return append(segs, cur)
}

// buildHistory replays a segment into a checker history in real-time
// order. The executors are interchangeable, so operations are assigned to
// sequential virtual clients (first fit): a client's operations never
// overlap, and the checker's per-client order then adds no constraint beyond
// real time. The assignment also steers the checker's search, which tries
// clients in order: Gets get the lowest clients, so a Get that can read the
// current value is linearized first, and Puts follow in the order their
// values must have landed by (their own end, or the end of the first Get
// that returned them), so the search's first guess at concurrent Puts is
// usually right. A failed Put stays pending — it may or may not have taken
// effect. Invocations sort before responses at equal timestamps, which only
// ever makes two operations concurrent.
func buildHistory(recs []record) *checker.History {
	deadline := map[string]int64{}
	for _, rc := range recs {
		if !rc.put && rc.val != "" {
			if d, ok := deadline[rc.val]; !ok || rc.end < d {
				deadline[rc.val] = rc.end
			}
		}
	}
	var gets, puts []int
	for i, rc := range recs {
		if rc.put {
			if d, ok := deadline[rc.val]; (!ok || rc.end < d) && !rc.failed {
				deadline[rc.val] = rc.end
			} else if !ok {
				deadline[rc.val] = math.MaxInt64
			}
			puts = append(puts, i)
		} else {
			gets = append(gets, i)
		}
	}
	sort.Slice(gets, func(a, b int) bool { return recs[gets[a]].start < recs[gets[b]].start })
	sort.SliceStable(puts, func(a, b int) bool { return deadline[recs[puts[a]].val] < deadline[recs[puts[b]].val] })

	client := make([]int, len(recs))
	assign := func(ops []int, first int) int {
		var members [][]int // per client: its operations
		for _, i := range ops {
			c := -1
			for j, m := range members {
				if !overlapsAny(recs, m, i) {
					c = j
					break
				}
			}
			if c < 0 {
				c = len(members)
				members = append(members, nil)
			}
			members[c] = append(members[c], i)
			client[i] = first + c
		}
		return first + len(members)
	}
	assign(puts, assign(gets, 1))

	type event struct {
		at     int64
		invoke bool
		rec    int
	}
	var events []event
	for i, rc := range recs {
		events = append(events, event{at: rc.start, invoke: true, rec: i})
		if !rc.failed {
			events = append(events, event{at: rc.end, rec: i})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].invoke && !events[j].invoke
	})
	h := &checker.History{}
	ids := make([]int, len(recs))
	for _, ev := range events {
		rc := recs[ev.rec]
		if ev.invoke {
			kind, arg := checker.OpRead, types.Bottom
			if rc.put {
				kind, arg = checker.OpWrite, types.Value(rc.val)
			}
			ids[ev.rec] = h.Invoke(types.Reader(client[ev.rec]), kind, arg)
			continue
		}
		ret := types.Bottom
		if !rc.put {
			ret = types.Value(rc.val)
		}
		h.Respond(ids[ev.rec], ret)
	}
	return h
}

// overlapsAny reports whether recs[i] overlaps any of recs[members]; a
// failed (pending) Put extends to the end of time.
func overlapsAny(recs []record, members []int, i int) bool {
	end := func(rc record) int64 {
		if rc.failed {
			return math.MaxInt64
		}
		return rc.end
	}
	for _, m := range members {
		if recs[m].start <= end(recs[i]) && recs[i].start <= end(recs[m]) {
			return true
		}
	}
	return false
}
