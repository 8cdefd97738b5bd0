package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Workload is one traffic mix the benchmark offers to the keyed Store,
// open-loop from a single process: t = 1 (S = 4 objects), 16 shards and
// 64-byte values, with a distinct value written by every Put.
type Workload struct {
	Name    string
	TCP     bool    // four loopback tcpnet daemons with WAL persistence instead of the in-process runtime
	GetFrac float64 // share of operations that are Gets; the rest are Puts
	Keys    int     // key-space size, every key prefilled before timing
	ZipfS   float64 // zipf skew over the key space; 0 = uniform
	Readers int     // reader handles in each shard's read pool
	Rate    float64 // fixed offered rate, ops/s, for the latency metrics
	LimitUs float64 // p99 latency limit of the capacity ladder, µs
}

const (
	faults    = 1
	shards    = 16
	valueSize = 64
	// slots is the generator's in-flight bound: executors draining the
	// arrival queue. It is far above the concurrency any fixed rate needs,
	// so it only binds when the offered load exceeds capacity.
	slots = 256
)

// workloads: why each was chosen, and what each should show, is recorded in
// DESIGN.md and BENCHMARK.json.
var workloads = []Workload{
	{
		Name:    "read-zipf",
		GetFrac: 0.98,
		Keys:    128,
		ZipfS:   1.3,
		Readers: 16,
		Rate:    8000,
		LimitUs: 10000,
	},
	{
		Name:    "write-uniform",
		GetFrac: 0.10,
		Keys:    8192,
		Readers: 8,
		Rate:    4000,
		LimitUs: 10000,
	},
	{
		Name:    "mixed-tcp-durable",
		TCP:     true,
		GetFrac: 0.90,
		Keys:    1024,
		ZipfS:   1.1,
		Readers: 8,
		Rate:    200,
		LimitUs: 20000,
	},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// op is one scheduled operation: a Get, or a Put of a value no other Put
// in the run writes.
type op struct {
	put bool
	key int32
	val string
}

// schedule is the seeded input of one load phase: ops[i] is due at
// i/rate seconds after the phase starts. id tags the phase's Put values so
// a Get's result names the exact Put that wrote it.
type schedule struct {
	id   int
	rate float64
	ops  []op
}

// keyName is the Store key of key index k.
func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// pad extends s to the workload's value size.
func pad(s string) string {
	if len(s) >= valueSize {
		return s
	}
	return s + strings.Repeat(".", valueSize-len(s))
}

// prefillValue is the value setup writes to key k before timing starts.
func prefillValue(k int) string { return pad(keyName(k) + "=p:") }

// putValue is the value written by op i of phase id to key k: distinct
// across every Put of the run.
func putValue(k, id, i int) string {
	return pad(keyName(k) + "=" + strconv.Itoa(id) + ":" + strconv.Itoa(i) + ":")
}

// parseValue inverts putValue/prefillValue for key k: prefill reports a
// prefill value, otherwise (id, i) name the Put that wrote it.
func parseValue(k int, v string) (id, i int, prefill bool, err error) {
	rest, ok := strings.CutPrefix(v, keyName(k)+"=")
	if !ok || len(v) != valueSize {
		return 0, 0, false, fmt.Errorf("value %q was never written to %s", v, keyName(k))
	}
	if strings.HasPrefix(rest, "p:") {
		return 0, 0, true, nil
	}
	f := strings.SplitN(rest, ":", 3)
	if len(f) != 3 {
		return 0, 0, false, fmt.Errorf("value %q was never written to %s", v, keyName(k))
	}
	if id, err = strconv.Atoi(f[0]); err == nil {
		i, err = strconv.Atoi(f[1])
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("value %q was never written to %s", v, keyName(k))
	}
	return id, i, false, nil
}

// makeSchedule draws the ops of phase id: d of load at rate ops/s, keys
// and the Get/Put mix from a stream seeded by (seed, id).
func (w Workload) makeSchedule(seed int64, id int, rate float64, d time.Duration) *schedule {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
	var zipf *rand.Zipf
	if w.ZipfS > 0 {
		zipf = rand.NewZipf(rng, w.ZipfS, 1, uint64(w.Keys-1))
	}
	s := &schedule{id: id, rate: rate, ops: make([]op, n)}
	for i := range s.ops {
		k := 0
		if zipf != nil {
			k = int(zipf.Uint64())
		} else {
			k = rng.Intn(w.Keys)
		}
		o := op{key: int32(k)}
		if rng.Float64() >= w.GetFrac {
			o.put = true
			o.val = putValue(k, id, i)
		}
		s.ops[i] = o
	}
	return s
}
