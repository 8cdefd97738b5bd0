// Package robustatomic is a robust atomic read/write storage library: a
// wait-free, optimally resilient MULTI-WRITER multi-reader atomic register
// over S = 3t+1 Byzantine-prone storage objects without data authentication.
// "The Complexity of Robust Atomic Storage" (Dobre, Guerraoui, Majuntke,
// Suri, Vukolić; PODC 2011) proves 4-round reads optimal in the WORST case;
// both operations here are ADAPTIVE. Writes take 2 rounds — the paper's
// single-writer optimum — whenever no concurrent foreign writer interferes
// (the optimistic proposal's prewrite round doubles as its validation),
// degrading to 3 under genuine write contention and bounded further only
// against Byzantine-forged reports. Reads take 2 rounds on a stable
// register: when the two query rounds certify the chosen value as
// completely written on a full quorum, the 2-round write-back is provably
// redundant and elided (see the internal/core package documentation for
// the safety argument), falling back to the full 4 rounds exactly when a
// concurrent or Byzantine-disturbed execution leaves completeness in
// doubt. The price of robustness is thus paid only when contention or
// faults actually show up. Timestamps are lexicographically ordered
// (Seq, WriterID) pairs, so writers that race to the same sequence number
// still issue totally ordered timestamps.
//
// The library runs over an in-process cluster (goroutines and channels, with
// optional fault injection and random delays) or over TCP against storage
// daemons (cmd/storaged); the protocol stack is identical in both cases.
// Processes that may write concurrently to one deployment configure
// distinct Options.WriterID values:
//
//	cluster, _ := robustatomic.NewCluster(robustatomic.Options{Faults: 1, Readers: 2})
//	defer cluster.Close()
//	w := cluster.Writer()
//	_ = w.Write("hello") // 2 rounds uncontended (adaptive fast path)
//	r, _ := cluster.Reader(1)
//	v, _ := r.Read() // "hello" (2 rounds stable; 4 worst case — the paper's optimum)
//
// Beyond the paper's single register, Store shards a keyed Put/Get API over
// N independent MWMR registers hosted on the same objects. Within a
// process, concurrent writes to one shard coalesce into a single adaptive
// flush (group commit; a validated 3-round write when the committer's
// cache is current, the certified read-modify-write when a foreign write
// forces a rebase, one validation round and no write at all for no-op
// batches); across processes, separately Connected clients with distinct
// WriterIDs (and disjoint StoreOptions.Readers) may Put concurrently —
// contention on the same key resolves atomically to one of the written
// values:
//
//	st, _ := cluster.NewStore(robustatomic.StoreOptions{Shards: 8})
//	_ = st.Put("order:42", "shipped")
//	v, _ = st.Get("order:42") // "shipped"
//
// Daemons started with -data-dir write-ahead-log every state mutation and
// recover it on restart, so a crashed object resumes as correct-but-slow
// instead of burning the fault budget with amnesia (pre-multi-writer data
// directories replay unchanged); Cluster.Repair (storctl repair)
// reconstitutes a wiped replacement object from a quorum of its live peers.
//
// See DESIGN.md for the paper reproduction map, the multi-writer promotion,
// the Store layer design and the durability subsystem, and EXPERIMENTS.md
// for the measured results (E11: the multi-writer round tax and contention
// behavior).
package robustatomic

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"robustatomic/internal/core"
	"robustatomic/internal/live"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/secret"
	"robustatomic/internal/server"
	"robustatomic/internal/tcpnet"
	"robustatomic/internal/types"
)

// Model selects the failure/authentication model.
type Model int

// Models.
const (
	// Unauthenticated is the paper's primary model: Byzantine objects, no
	// data authentication. Writes take 2 rounds, reads 4 — optimal.
	Unauthenticated Model = iota + 1
	// SecretTokens is the stronger model of [DMSS09]: reads take 3 rounds
	// in contention-free executions.
	SecretTokens
)

// Options configures a cluster.
type Options struct {
	// Faults is t, the number of Byzantine storage objects tolerated.
	// The cluster uses S = 3t+1 objects. Default 1.
	Faults int
	// Readers is R, the number of reader handles (each gets a dedicated
	// write-back register). Default 2.
	Readers int
	// WriterID identifies this process's writer among the register's
	// concurrent writers: it is embedded in every timestamp the process
	// issues, breaking ties between writers that concurrently picked the
	// same sequence number. Processes that may write concurrently to the
	// same cluster MUST use distinct ids; 0 (the default) is writer w_0,
	// which preserves the exact timestamps of the original single-writer
	// deployments.
	WriterID int
	// Model selects the failure model. Default Unauthenticated.
	Model Model
	// LockStep disables request pipelining on remote clusters: every handle
	// gets a private connection pool allowing one in-flight request per
	// object, the wire behavior of generations ≤ 2. Kept as the E13 baseline
	// and a conservative escape hatch; the default (false) multiplexes every
	// handle's rounds over one pipelined connection per object.
	LockStep bool
	// Coalesce controls cross-shard flush coalescing (see CoalesceMode).
	Coalesce CoalesceMode
	// Seed drives randomized delays and token generation.
	Seed int64
	// MaxDelay bounds random in-process message delays (0 = none).
	MaxDelay time.Duration
	// RoundHook, when set, is invoked with the round's label after every
	// successfully completed communication round of every handle built from
	// this cluster — instrumentation for round-complexity assertions and
	// benchmarks (tests assert "2 rounds per uncontended write" instead of
	// inferring it from latency). It may be called concurrently from the
	// goroutines driving operations; keep it cheap and thread-safe.
	RoundHook func(label string)
	// Tracer, when set, samples per-operation round traces: every handle's
	// round executor is wrapped so that a Store flush or Get the tracer
	// selects records each of its rounds with per-object send/reply/error
	// timestamps (including sub-rounds riding another leader's merged batch
	// frame). Off the sampled path the wrapper costs one atomic load per
	// round. Failed traced operations are retained for post-mortem dumps —
	// see obs.Tracer.FormatFailed and the chaos harnesses.
	Tracer *obs.Tracer
}

// CoalesceMode controls whether concurrent Store shard flushes merge into
// cross-register batched rounds (one frame per object for the whole batch)
// instead of one round per shard.
type CoalesceMode int

// Coalesce modes.
const (
	// CoalesceAuto (the default) coalesces exactly where it pays: remote
	// clusters with pipelining enabled. In-process rounds have no frames to
	// save, and a lock-step transport would serialize the merged rounds
	// anyway.
	CoalesceAuto CoalesceMode = iota
	// CoalesceOn forces coalescing (any transport — the in-process runtime
	// batches too, which the chaos tests exercise).
	CoalesceOn
	// CoalesceOff disables coalescing: every shard flush runs its own
	// rounds.
	CoalesceOff
)

func (o *Options) defaults() {
	if o.Faults == 0 {
		o.Faults = 1
	}
	if o.Readers == 0 {
		o.Readers = 2
	}
	if o.Model == 0 {
		o.Model = Unauthenticated
	}
}

// Cluster is a handle to a running storage cluster (in-process or remote).
// Handle creation (Writer, Reader, NewStore) is safe for concurrent use;
// each handle is then single-goroutine as the model prescribes.
type Cluster struct {
	opts Options
	th   quorum.Thresholds

	inproc *live.Cluster // nil when remote
	addrs  []string      // nil when in-process
	// shared marks a Sibling handle: Close must not shut down the in-process
	// runtime it borrowed from its parent.
	shared bool

	mu         sync.Mutex // guards tcpClients, mux, combiner
	tcpClients []*tcpnet.Client
	// mux is the shared pipelined transport of a remote cluster: every
	// handle's rounds multiplex over its one connection per object. Built
	// lazily; nil in-process or under Options.LockStep.
	mux *tcpnet.Mux
	// combiner merges concurrent Store shard flushes into batched rounds
	// (lazily built by the first coalescing shard writer).
	combiner *proto.Combiner
}

// mixSeed derives a deterministic sub-seed from the cluster seed and a
// handle's coordinates, splitmix64-style, so every handle gets a private
// rand stream: near-identical inputs (adjacent reader indices, adjacent
// shards) yield unrelated streams, and no two handles ever share a
// *rand.Rand (which is not concurrency-safe).
func mixSeed(seed int64, salts ...int64) int64 {
	z := uint64(seed) ^ 0x5eedcafe
	for _, s := range salts {
		z ^= uint64(s) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z)
}

// handleRNG returns a fresh private rand stream for the handle (proc, reg).
func (c *Cluster) handleRNG(proc types.ProcID, reg int) *rand.Rand {
	return rand.New(rand.NewSource(mixSeed(c.opts.Seed, int64(proc.Kind), int64(proc.Idx), int64(reg))))
}

// NewCluster starts an in-process cluster of S = 3t+1 storage objects.
func NewCluster(opts Options) (*Cluster, error) {
	opts.defaults()
	th, err := quorum.NewThresholds(quorum.OptimalObjects(opts.Faults), opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	c := &Cluster{
		opts: opts,
		th:   th,
		inproc: live.New(live.Config{
			Servers:  th.S,
			Seed:     opts.Seed,
			MaxDelay: opts.MaxDelay,
		}),
	}
	return c, nil
}

// Connect attaches to a remote cluster of storage daemons (cmd/storaged);
// addrs[i] must serve object i+1 and len(addrs) must be 3t+1 for the
// configured fault budget.
func Connect(addrs []string, opts Options) (*Cluster, error) {
	opts.defaults()
	th, err := quorum.NewThresholds(len(addrs), opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	return &Cluster{
		opts:  opts,
		th:    th,
		addrs: addrs,
	}, nil
}

// Sibling returns a second logical client process over the same running
// cluster: it shares the in-process runtime (or the daemon addresses) but
// carries its own WriterID, reader identities, seed and transport state —
// the in-process twin of a second machine running Connect. Concurrent
// sibling processes MUST configure distinct WriterIDs and use disjoint
// reader identities (reader handles own their write-back registers).
// Closing a sibling releases only its own transports; the parent's Close
// shuts the shared runtime down.
func (c *Cluster) Sibling(opts Options) (*Cluster, error) {
	opts.defaults()
	if opts.Faults != c.opts.Faults {
		return nil, fmt.Errorf("robustatomic: sibling fault budget %d != cluster's %d", opts.Faults, c.opts.Faults)
	}
	return &Cluster{
		opts:   opts,
		th:     c.th,
		inproc: c.inproc,
		addrs:  c.addrs,
		shared: true,
	}, nil
}

// Close shuts down an in-process cluster or the TCP connections.
func (c *Cluster) Close() {
	if c.inproc != nil && !c.shared {
		c.inproc.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tc := range c.tcpClients {
		tc.Close()
	}
	if c.mux != nil {
		c.mux.Close()
	}
}

// Faults returns t.
func (c *Cluster) Faults() int { return c.th.T }

// Objects returns S = 3t+1.
func (c *Cluster) Objects() int { return c.th.S }

// InjectFault makes in-process object sid Byzantine with a named behavior:
// "silent", "garbage", "stale", "equivocate", "elide-liar" or "flaky". It
// is a no-op template for chaos testing; remote clusters configure
// behaviors on the daemons instead.
func (c *Cluster) InjectFault(sid int, mode string) error {
	if c.inproc == nil {
		return fmt.Errorf("robustatomic: fault injection needs an in-process cluster")
	}
	var b server.Behavior
	switch mode {
	case "silent":
		b = server.Silent{}
	case "garbage":
		b = server.Garbage{Level: 1 << 30, Val: "forged"}
	case "stale":
		// No explicit snapshot: every register instance the object hosts
		// (the single default register and each Store shard) is frozen at
		// its own state when the fault first bites, so staleness attacks
		// stay meaningful per shard.
		b = &server.Stale{}
	case "equivocate":
		b = server.Equivocate{Readers: &server.Stale{}}
	case "elide-liar":
		b = &server.ElideLiar{}
	case "flaky":
		// Seed per object: flaky objects must not drop the same message
		// pattern in lockstep, or t flaky objects act as one.
		b = server.Flaky{Rand: rand.New(rand.NewSource(mixSeed(c.opts.Seed, int64(sid)))), DropProb: 0.5}
	default:
		return fmt.Errorf("robustatomic: unknown fault mode %q", mode)
	}
	c.inproc.SetByzantine(sid, b)
	return nil
}

// ClearFault restores in-process object sid to honest behavior, counting it
// back out of the fault budget (chaos windows end this way).
func (c *Cluster) ClearFault(sid int) error {
	if c.inproc == nil {
		return fmt.Errorf("robustatomic: fault injection needs an in-process cluster")
	}
	c.inproc.ClearByzantine(sid)
	return nil
}

// Partition cuts in-process object sid off the network: its inbound messages
// are dropped before processing, so its state does not advance — the
// in-process twin of a network partition (and, since live objects have no
// disk, also of a kill -9 with preserved state: the object resumes exactly
// where it stopped when Heal reconnects it). At most t objects may be
// partitioned at a time for rounds to stay live. Remote clusters partition
// via tcpnet.Server.SetPartitioned on the daemons instead.
func (c *Cluster) Partition(sid int) error {
	if c.inproc == nil {
		return fmt.Errorf("robustatomic: partitioning needs an in-process cluster")
	}
	c.inproc.SetPartitioned(sid, true)
	return nil
}

// Heal reconnects a partitioned in-process object.
func (c *Cluster) Heal(sid int) error {
	if c.inproc == nil {
		return fmt.Errorf("robustatomic: partitioning needs an in-process cluster")
	}
	c.inproc.SetPartitioned(sid, false)
	return nil
}

// SetNetem injects seeded link faults on in-process object sid: each inbound
// message is dropped with probability drop (never processed) and surviving
// replies are duplicated with probability dup. Both zero clears. The rand
// stream derives from the cluster seed and sid, so a replayed seed replays
// the same loss pattern. Composes with InjectFault — netem is the network,
// not the object.
func (c *Cluster) SetNetem(sid int, drop, dup float64) error {
	if c.inproc == nil {
		return fmt.Errorf("robustatomic: netem needs an in-process cluster")
	}
	if drop == 0 && dup == 0 {
		c.inproc.SetNetem(sid, nil, 0, 0)
		return nil
	}
	rng := rand.New(rand.NewSource(mixSeed(c.opts.Seed, int64(sid), 0x6e65746d)))
	c.inproc.SetNetem(sid, rng, drop, dup)
	return nil
}

// rounder builds the transport handle for one process against register
// instance reg (0 is the default single register; the Store layer uses
// 1..Shards).
func (c *Cluster) rounder(proc types.ProcID, reg int) proto.Rounder {
	r := c.transport(proc, reg)
	if c.opts.RoundHook != nil {
		r = proto.Observe(r, c.opts.RoundHook)
	}
	return r
}

// transport builds the raw (unobserved) round executor for (proc, reg).
func (c *Cluster) transport(proc types.ProcID, reg int) proto.Rounder {
	if c.inproc != nil {
		return c.inproc.NewClientReg(proc, reg)
	}
	if c.opts.LockStep {
		tc := tcpnet.NewLockStepClientReg(proc, c.addrs, reg)
		c.mu.Lock()
		c.tcpClients = append(c.tcpClients, tc)
		c.mu.Unlock()
		return tc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.muxLocked().Client(proc, reg)
}

// muxLocked returns the shared pipelined Mux, building it on first use.
// Callers must hold c.mu.
func (c *Cluster) muxLocked() *tcpnet.Mux {
	if c.mux == nil {
		c.mux = tcpnet.NewMux(c.addrs)
	}
	return c.mux
}

// coalesceOn resolves Options.Coalesce for this cluster.
func (c *Cluster) coalesceOn() bool {
	switch c.opts.Coalesce {
	case CoalesceOn:
		return true
	case CoalesceOff:
		return false
	default:
		return c.addrs != nil && !c.opts.LockStep
	}
}

// flushCombiner returns the cluster-wide Combiner merging concurrent Store
// shard flushes (this process's writer identity) into batched rounds on one
// batch-capable inner transport.
func (c *Cluster) flushCombiner() *proto.Combiner {
	proc := types.WriterID(c.opts.WriterID)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.combiner != nil {
		return c.combiner
	}
	var inner proto.Rounder
	switch {
	case c.inproc != nil:
		inner = c.inproc.NewClientReg(proc, 0)
	case c.opts.LockStep:
		// CoalesceOn forced over a lock-step transport: merged rounds still
		// batch into one frame, just one in flight at a time.
		tc := tcpnet.NewLockStepClientReg(proc, c.addrs, 0)
		c.tcpClients = append(c.tcpClients, tc)
		inner = tc
	default:
		inner = c.muxLocked().Client(proc, 0)
	}
	c.combiner = proto.NewCombiner(inner)
	return c.combiner
}

// shardWriter builds the committer's writer handle for shard register reg.
// With coalescing on, the writer's rounds run through the cluster-wide
// Combiner, so concurrent flushes of different shards merge into one
// batched frame per object; the RoundHook still observes each shard's
// logical rounds individually (the hook wraps above the Combiner).
func (c *Cluster) shardWriter(reg int, last types.TS) *Writer {
	if !c.coalesceOn() {
		return c.writerReg(reg, last)
	}
	r := proto.Rounder(c.flushCombiner().Rounder(reg))
	if c.opts.RoundHook != nil {
		r = proto.Observe(r, c.opts.RoundHook)
	}
	return c.writerOn(r, reg, last)
}

// Writer is one of the register's writer handles. Its identity is the
// cluster's Options.WriterID; distinct concurrently-writing processes must
// configure distinct ids. A single handle is single-goroutine, like every
// client of the model.
type Writer struct {
	c      *Cluster
	plain  *core.Writer
	secret *secret.AtomicWriter
	// traced is the handle's trace-capable round executor (nil unless
	// Options.Tracer is set); the Store layer points it at sampled OpTraces.
	traced *proto.Traced
}

// Writer returns this process's writer handle for the standalone register
// (create it once per process; concurrent processes use distinct WriterIDs).
func (c *Cluster) Writer() *Writer { return c.writerReg(0, types.TS{}) }

// writerReg builds the writer handle for register instance reg, resuming
// from a known last timestamp (zero for a fresh register).
func (c *Cluster) writerReg(reg int, last types.TS) *Writer {
	return c.writerOn(c.rounder(types.WriterID(c.opts.WriterID), reg), reg, last)
}

// writerOn builds the writer handle for register instance reg over an
// already-constructed round executor.
func (c *Cluster) writerOn(rc proto.Rounder, reg int, last types.TS) *Writer {
	proc := types.WriterID(c.opts.WriterID)
	wid := int64(c.opts.WriterID)
	w := &Writer{c: c}
	if c.opts.Tracer != nil {
		w.traced = proto.Trace(rc, reg)
		rc = w.traced
	}
	switch c.opts.Model {
	case SecretTokens:
		w.secret = secret.NewAtomicWriterAt(rc, c.th, c.handleRNG(proc, reg), wid, last)
	default:
		w.plain = core.NewWriterAt(rc, c.th, wid, last)
	}
	return w
}

// Write stores v (2 communication rounds — the optimistic proposal plus
// its commit — whenever no concurrent foreign writer interfered; bounded
// fallback rounds otherwise, see internal/core's adaptive write flow). A
// wrong-epoch redirect (the membership was reconfigured under the handle)
// triggers a transparent config refetch and retry; every Writer operation
// below reacts the same way.
func (w *Writer) Write(v string) error {
	return w.c.retryEpoch(func() error {
		if w.plain != nil {
			return w.plain.Write(types.Value(v))
		}
		return w.secret.Write(types.Value(v))
	})
}

// modifyPair performs the certified read-modify-write the keyed Store layer
// rebases through (4 rounds: certified 2-round regular read + 2-round write
// at the successor timestamp).
func (w *Writer) modifyPair(fn func(cur types.Pair) (types.Value, error)) (p types.Pair, err error) {
	err = w.c.retryEpoch(func() error {
		var e error
		if w.plain != nil {
			p, e = w.plain.Modify(fn)
		} else {
			p, e = w.secret.Modify(fn)
		}
		return e
	})
	return p, err
}

// writeCleanPair attempts the flush fast path: one freshness round, then —
// iff no foreign write landed since the writer's last timestamp — the two
// write phases install v at the cached successor (3 rounds, no decision
// procedure).
func (w *Writer) writeCleanPair(v types.Value) (p types.Pair, ok bool, err error) {
	err = w.c.retryEpoch(func() error {
		var e error
		if w.plain != nil {
			p, ok, e = w.plain.WriteClean(v)
		} else {
			p, ok, e = w.secret.WriteClean(v)
		}
		return e
	})
	return p, ok, err
}

// validateClean runs the 1-round freshness check backing no-op flush
// elision.
func (w *Writer) validateClean() (ok bool, err error) {
	err = w.c.retryEpoch(func() error {
		var e error
		if w.plain != nil {
			ok, e = w.plain.Validate()
		} else {
			ok, e = w.secret.Validate()
		}
		return e
	})
	return ok, err
}

// Reader is one of the register's R reader handles.
type Reader struct {
	c      *Cluster
	plain  *core.Reader
	secret *secret.AtomicReader
	// traced is the handle's trace-capable round executor (nil unless
	// Options.Tracer is set); the Store layer points it at sampled OpTraces.
	traced *proto.Traced
}

// Reader returns reader handle idx (1-based, ≤ Options.Readers). Each
// reader identity must be used by at most one client at a time. Sequential
// reuse across process lifetimes is safe: a fresh handle rediscovers its
// write-back sequence number from its first read's query rounds, so it
// never re-issues a number an earlier lifetime already used (see
// core.ResumeSeq). Concurrent use of one identity remains forbidden.
func (c *Cluster) Reader(idx int) (*Reader, error) { return c.readerReg(idx, 0) }

// readerReg builds reader handle idx for register instance reg.
func (c *Cluster) readerReg(idx, reg int) (*Reader, error) {
	if idx < 1 || idx > c.opts.Readers {
		return nil, fmt.Errorf("robustatomic: reader index %d out of 1..%d", idx, c.opts.Readers)
	}
	rc := c.rounder(types.Reader(idx), reg)
	r := &Reader{c: c}
	if c.opts.Tracer != nil {
		r.traced = proto.Trace(rc, reg)
		rc = r.traced
	}
	switch c.opts.Model {
	case SecretTokens:
		r.secret = secret.NewAtomicReader(rc, c.th, c.handleRNG(types.Reader(idx), reg), idx, c.opts.Readers)
	default:
		r.plain = core.NewReader(rc, c.th, idx, c.opts.Readers)
	}
	return r, nil
}

// Read returns the register's current value (adaptive: 2 communication
// rounds on a stable register — 1 in the SecretTokens model — with the
// write-back elided when the query rounds certify the chosen value as
// completely written; 4 rounds worst case under contention or Byzantine
// disturbance, which Proposition 1 proves optimal). The empty string is the
// initial value.
func (r *Reader) Read() (string, error) {
	p, err := r.readPair(types.Pair{})
	return string(p.Val), err
}

// readPair performs the atomic read and returns the chosen timestamp-value
// pair (the Store layer needs the timestamp for writer recovery). known is
// a genuine pair the caller already holds, or zero: objects at its
// timestamp leave the value out of their replies (core.Reader.ReadPairKnown;
// the secret-token model ignores it). Like the Writer operations, a
// wrong-epoch redirect refetches the configuration and retries
// transparently.
func (r *Reader) readPair(known types.Pair) (p types.Pair, err error) {
	err = r.c.retryEpoch(func() error {
		var e error
		if r.plain != nil {
			p, e = r.plain.ReadPairKnown(known)
		} else {
			p, e = r.secret.ReadPair()
		}
		return e
	})
	return p, err
}

// elided reports whether the last readPair skipped its write-back (the
// query rounds certified the chosen pair as completely written).
func (r *Reader) elided() bool {
	if r.plain != nil {
		return r.plain.Elided
	}
	return r.secret.Elided
}
