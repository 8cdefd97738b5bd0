package robustatomic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustatomic/internal/config"
	"robustatomic/internal/core"
	"robustatomic/internal/obs"
	"robustatomic/internal/proto"
	"robustatomic/internal/shard"
	"robustatomic/internal/types"
)

// Flush-outcome counters and per-op latency distributions of the keyed Store
// layer, process-wide. The four flush counters partition completed flushes by
// the path that committed them (elided validation-only no-op, validated fast
// path, certified read-modify-write, failed — ops parked in uncommitted), so
// a scrape shows directly how often the adaptive committer wins its bet.
var (
	mFlushNoop      = obs.Default.Counter("store_flush_noop_total")
	mFlushFast      = obs.Default.Counter("store_flush_fast_total")
	mFlushCertified = obs.Default.Counter("store_flush_certified_total")
	mFlushFailed    = obs.Default.Counter("store_flush_failed_total")

	mPutLat = obs.Default.Hist(`store_op_latency_us{op="put"}`)
	mDelLat = obs.Default.Hist(`store_op_latency_us{op="delete"}`)
	mGetLat = obs.Default.Hist(`store_op_latency_us{op="get"}`)
)

// Read-path counters: how often the adaptive Get wins each of its bets.
// Coalesced counts Gets served by another Get's shared read (no protocol
// execution of their own); elided counts shard reads whose write-back the
// query rounds proved redundant; cache hits are shard reads that decided on
// the already-decoded cached table and skipped the decode.
var (
	mGetCoalesced = obs.Default.Counter("store_get_coalesced_total")
	mGetElided    = obs.Default.Counter("store_get_elided_total")
	mGetCacheHit  = obs.Default.Counter("store_get_cache_hit_total")
)

// opLatSample is the per-op latency sampling rate: 1-in-8 ops are timed
// (same convention as obs.RoundStats round latency). A no-op-elided Put is
// ~900ns; two time.Now calls plus a histogram record on every op costs a
// measurable slice of the <10% obs overhead budget, while 1-in-8 keeps the
// latency distribution honest and amortizes the cost to a few ns per op.
const opLatSample = 8

var opSeq atomic.Uint64

// opStart returns a start time for 1-in-opLatSample ops and the zero time
// for the rest.
func opStart() time.Time {
	if opSeq.Add(1)%opLatSample != 0 {
		return time.Time{}
	}
	return time.Now()
}

// StoreOptions configures the sharded multi-key Store layer.
type StoreOptions struct {
	// Shards is the number of independent atomic registers keys are hashed
	// onto. More shards mean more write parallelism and smaller per-shard
	// tables. Default 8.
	Shards int
	// Readers lists the reader identities (1..Options.Readers) this Store's
	// per-shard read pools may use. Default: all of them. Reader identities
	// own their write-back registers exclusively, so separately Connected
	// processes sharing shards must use DISJOINT sets here (writers need no
	// such partitioning — the shard registers are multi-writer; only the
	// per-reader write-back registers remain single-writer). Reusing an
	// identity across sequential process lifetimes is safe — a fresh
	// handle rediscovers its write-back sequence number during its first
	// read (core.ResumeSeq) — but two live processes must never share one.
	Readers []int
}

func (o *StoreOptions) defaults(total int) {
	if o.Shards == 0 {
		o.Shards = 8
	}
	if len(o.Readers) == 0 {
		for i := 1; i <= total; i++ {
			o.Readers = append(o.Readers, i)
		}
	}
}

// Store is a keyed Put/Get layer over N independent robust atomic registers
// (the paper's cloud key-value scenario, Section 1.1): keys are hashed onto
// shards, each shard is one MWMR atomic register hosted on the cluster's
// S = 3t+1 Byzantine-prone objects, and a shard's register value holds the
// shard's whole key→value table. Per-key atomicity is the projection of
// per-register atomicity, so every guarantee of the underlying protocol
// carries over key by key.
//
// Shards are instantiated lazily: the first operation touching a shard
// creates its writer handle and reader pool and recovers the shard's
// current contents and write timestamp from the cluster, so a Store attached
// to a non-empty cluster (e.g. a fresh Connect to running daemons) resumes
// where previous writers stopped.
//
// Store is safe for concurrent use, and — since the registers are
// multi-writer — so is the cluster: separately Connected processes may Put
// concurrently, provided each configured a distinct Options.WriterID.
// Within one process, writes to the same shard coalesce (group commit):
// mutations that arrive while a flush is in flight merge into one pending
// batch and commit together in the next flush, so N concurrent Puts to a
// shard cost far fewer than N protocol executions.
//
// A flush is ADAPTIVE: the committer first tries the validated fast path —
// one freshness round confirming no foreign write landed since its cached
// timestamp, then the two blind write phases installing the batch-applied
// table at the cached successor (3 rounds, and none of the certified
// read's fault-set-enumerating decision procedure). When the validation
// exposes a foreign write, nothing is written and the flush falls back to
// the certified read-modify-write of PR 4 (4 rounds): read the current
// table, rebase onto the foreign state, re-apply the batch, write the
// merged table at the successor timestamp — and the shard stays on that
// certified path for the next several flushes (a contention penalty
// window) before probing the fast path again, so sustained cross-process
// contention costs at most one extra round every few flushes. A batch
// whose mutations all turn out to be no-ops (Put of the already-current
// value, Delete of an absent key) commits with a single validation round
// and no register write at all.
//
// Cross-process concurrency is last-writer-wins at SHARD granularity:
// registers cannot solve consensus, so two flushes that race on the same
// shard resolve to the lexicographically larger timestamp, and the loser's
// concurrent mutations of OTHER keys in that shard may be overwritten (its
// callers see success only after a covering flush, so a lost race surfaces
// as the next flush rebasing and re-asserting). Contending writes to the
// SAME key are ordinary concurrent register writes: one of the written
// values survives, atomically ordered — the guarantee the MWMR checker
// verifies. Partition writers across shards (or keys across shards) when
// cross-process write isolation matters.
type Store struct {
	c      *Cluster
	opts   StoreOptions
	router shard.Router
	shards *shard.Lazy[*storeShard]
}

// storeShard is one shard's client-side state. table/keys/lastTS mirror the
// register state as of this process's last flush; they are committer-private
// (exactly one committer runs at a time, and the lead-handoff channel
// establishes happens-before between consecutive committers), so only next,
// flushing and batch op collection need the mutex.
type storeShard struct {
	idx int // shard index, for error/trace labels

	mu       sync.Mutex   // guards next, flushing, and batch op appends
	flushing bool         // a committer is running (its flush may be in flight)
	next     *commitBatch // batch collecting mutations for the next flush; nil if none pending

	// Read-side group commit, symmetric to the write side above: Gets that
	// arrive while a shard read is in flight coalesce into one pending
	// getBatch served by a SINGLE protocol read (and single write-back, when
	// one is needed) once the in-flight read completes.
	rmu      sync.Mutex // guards gnext, greading
	greading bool       // a read leader is running
	gnext    *getBatch  // batch collecting Gets for the next shared read; nil if none pending

	// Certified-table cache: the decoded table of the most recent read
	// decision, keyed by its register timestamp. A read deciding on the
	// cached timestamp skips the table decode; the cache is an accelerator
	// over certified protocol output, never a second copy of ground truth —
	// timestamps name at most one genuinely-written value, so a hit cannot
	// disagree with a decode. Invalidated whenever this process's committer
	// moves the register head (the entry can no longer be decided by a
	// correct read) and replaced whenever a read decides a newer timestamp.
	// cacheTab is shared read-only by every Get it serves and must never
	// alias the committer-private table.
	cacheMu  sync.Mutex
	cacheTS  types.TS
	cacheTab map[string]string
	// known is the newest genuine pair of the shard register this process
	// holds: the last read decision, or this process's own last completed
	// flush. Reads name its timestamp, so objects still at it reply without
	// the table (core.Reader.ReadPairKnown). It is the shard's only copy of
	// an encoded table outside the committer; reader handles keep none.
	// Guarded by cacheMu.
	known types.Pair

	pool *shard.Pool[*Reader]

	// Committer-private state below.
	table  map[string]string
	keys   []string // table's keys, ascending; maintained incrementally
	lastTS types.TS // register timestamp table mirrors (zero before any flush)
	// enc is the committer's long-lived table-encode buffer, reused across
	// flushes (shard.AppendSorted into enc[:0]); only the immutable register
	// value copied out of it is allocated per flush.
	enc []byte
	// penalty counts upcoming flushes routed straight to the certified
	// read-modify-write: after a fast-path validation conflict the shard
	// assumes cross-process contention and stops paying the optimistic
	// round for a window, probing the fast path again once it drains.
	penalty int
	// uncommitted holds the ops of failed flushes: a timed-out flush may
	// have reached some objects, so the ops re-apply in every later flush
	// until one succeeds and re-asserts them at a higher timestamp — the
	// value a reader may already have certified never silently vanishes.
	uncommitted []func(*storeShard) bool

	// tracer samples per-op round traces (nil when Options.Tracer is unset);
	// wTraced is the committer's traced round executor, which the flush
	// bracket points at the sampled OpTrace so every round the flush runs —
	// including its sub-rounds inside another leader's merged frame — lands
	// its per-object events on that trace.
	tracer  *obs.Tracer
	wTraced *proto.Traced

	// The three committer-only register operations below are never called
	// concurrently (exactly one committer runs at a time, and the
	// lead-handoff channel establishes happens-before between consecutive
	// committers). Swappable in tests and benchmarks; a nil writeClean
	// disables the flush fast path entirely (certified path only).
	//
	// modify performs one certified read-modify-write of the shard register.
	modify func(fn func(cur types.Pair) (types.Value, error)) (types.Pair, error)
	// writeClean performs the validated fast-path write: one freshness
	// round, then v installed at the cached successor iff no foreign
	// timestamp beyond lastTS was in circulation.
	writeClean func(v types.Value) (types.Pair, bool, error)
	// validate runs the 1-round freshness check backing no-op elision.
	validate func() (bool, error)
}

// commitBatch represents one group commit: the key mutations (in call order)
// accumulated since the previous flush took over. Every mutator whose op
// rides in the batch blocks on done; exactly one of them (or the previous
// committer, via lead) performs the flush. An op returns whether it changed
// the table — an all-no-op batch elides the register write.
type commitBatch struct {
	ops  []func(*storeShard) bool
	done chan struct{} // closed when the covering flush completes
	lead chan struct{} // capacity 1: the handoff token making its receiver the committer
	err  error         // the covering flush's result; valid after done is closed
}

func newCommitBatch() *commitBatch {
	return &commitBatch{done: make(chan struct{}), lead: make(chan struct{}, 1)}
}

// getBatch represents one shared shard read: every Get that joined blocks on
// done; exactly one of them (or the previous leader, via lead) runs the
// protocol read and publishes the decoded table. Sharing is linearizable:
// joiners enter the batch strictly before the leader starts the read (the
// leader detaches the batch under rmu first), so the shared read executes
// within every joiner's operation interval and each Get may linearize at
// the shared read's linearization point.
type getBatch struct {
	done    chan struct{} // closed when the covering read completes
	lead    chan struct{} // capacity 1: the handoff token making its receiver the leader
	waiters int           // Gets coalesced into this batch (guarded by rmu)
	table   map[string]string
	err     error // the covering read's result; valid after done is closed
}

func newGetBatch() *getBatch {
	return &getBatch{done: make(chan struct{}), lead: make(chan struct{}, 1)}
}

// NewStore returns a keyed store over the cluster.
func (c *Cluster) NewStore(opts StoreOptions) (*Store, error) {
	opts.defaults(c.opts.Readers)
	// Reader identities own their write-back registers exclusively, so a
	// duplicated index would put two pool handles — two writers — on one
	// single-writer register and corrupt its timestamp discipline.
	seen := make(map[int]bool, len(opts.Readers))
	for _, idx := range opts.Readers {
		if idx < 1 || idx > c.opts.Readers {
			return nil, fmt.Errorf("robustatomic: store reader index %d out of 1..%d", idx, c.opts.Readers)
		}
		if seen[idx] {
			return nil, fmt.Errorf("robustatomic: duplicate store reader index %d", idx)
		}
		seen[idx] = true
	}
	// Shard i lives on register instance i+1; the topmost instance must stay
	// clear of the reserved configuration register.
	if opts.Shards >= config.Reg {
		return nil, fmt.Errorf("robustatomic: shard count %d collides with the reserved config register %d", opts.Shards, config.Reg)
	}
	router, err := shard.NewRouter(opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("robustatomic: %w", err)
	}
	s := &Store{c: c, opts: opts, router: router}
	s.shards = shard.NewLazy(opts.Shards, s.buildShard)
	return s, nil
}

// buildShard instantiates shard i: handles, then recovery. Register instance
// 0 is the legacy standalone register, so shard i lives on instance i+1.
func (s *Store) buildShard(i int) (*storeShard, error) {
	reg := i + 1
	readers := make([]*Reader, len(s.opts.Readers))
	for j, idx := range s.opts.Readers {
		r, err := s.c.readerReg(idx, reg)
		if err != nil {
			return nil, fmt.Errorf("robustatomic: shard %d: %w", i, err)
		}
		readers[j] = r
	}
	// Recovery read: learn the shard's current table and the timestamp the
	// writer must exceed, so a new Store over an existing cluster neither
	// clobbers other keys in the shard nor reuses timestamps. Traced as its
	// own op: recovery reads race whatever chaos is in flight when a shard is
	// first touched, which is exactly when flakes have fired historically.
	cur, err := func() (types.Pair, error) {
		r := readers[0]
		if tr := s.c.opts.Tracer; tr != nil && r.traced != nil {
			if op := tr.StartOp("RECOVER", fmt.Sprintf("shard %d", i)); op != nil {
				r.traced.SetOp(op)
				defer r.traced.SetOp(nil)
				p, err := r.readPair(types.Pair{})
				tr.EndOp(op, err)
				return p, err
			}
		}
		return r.readPair(types.Pair{})
	}()
	if err != nil {
		return nil, fmt.Errorf("robustatomic: shard %d recovery: %w", i, err)
	}
	table, err := shard.DecodeTable(string(cur.Val))
	if err != nil {
		return nil, fmt.Errorf("robustatomic: shard %d recovery: %w", i, err)
	}
	w := s.c.shardWriter(reg, cur.TS)
	return &storeShard{
		idx:        i,
		table:      table,
		keys:       shard.SortedKeys(table),
		lastTS:     cur.TS,
		known:      cur,
		pool:       shard.NewPool(readers),
		modify:     w.modifyPair,
		writeClean: w.writeCleanPair,
		validate:   w.validateClean,
		tracer:     s.c.opts.Tracer,
		wTraced:    w.traced,
	}, nil
}

// Shards returns the shard count N.
func (s *Store) Shards() int { return s.router.N() }

// ShardOf returns the shard index key routes to.
func (s *Store) ShardOf(key string) int { return s.router.Locate(key) }

// Put stores value under key. The mutation commits in the shard's next
// flush, shared with any other of this process's mutations that coalesced
// into the same batch; Put returns when that flush completes. Concurrent
// Puts of the same key — from this or any other process with a distinct
// WriterID — are concurrent register writes: one value survives, atomically.
// A Put of the value the key already holds is a no-op mutation: alone in a
// batch it commits with a single freshness-validation round and no register
// write (the round certifies the cached value is still current, which is
// where the no-op linearizes).
func (s *Store) Put(key, value string) error {
	if start := opStart(); !start.IsZero() {
		defer mPutLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return err
	}
	return sh.mutate(func(sh *storeShard) bool {
		if cur, ok := sh.table[key]; ok {
			if cur == value {
				return false
			}
			sh.table[key] = value
			return true
		}
		sh.keys = shard.InsertSorted(sh.keys, key)
		sh.table[key] = value
		return true
	})
}

// Delete removes key (a write of the shard table without it). Deleting an
// absent key is a no-op mutation (validated, not written — see Put).
func (s *Store) Delete(key string) error {
	if start := opStart(); !start.IsZero() {
		defer mDelLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return err
	}
	return sh.mutate(func(sh *storeShard) bool {
		if _, ok := sh.table[key]; !ok {
			return false
		}
		sh.keys = shard.RemoveSorted(sh.keys, key)
		delete(sh.table, key)
		return true
	})
}

// mutate queues one key mutation and blocks until a flush covering it
// completes (group commit). Ops apply to the committer's table in call
// order, so a batch holding a Put and a Delete of the same key resolves to
// whichever came last. The batch linearizes its mutations at its single
// register write — per-key atomicity is preserved because each key's value
// still changes only at register writes, in the order the ops applied.
func (sh *storeShard) mutate(op func(*storeShard) bool) error {
	sh.mu.Lock()
	b := sh.next
	if b == nil {
		b = newCommitBatch()
		sh.next = b
	}
	b.ops = append(b.ops, op)
	if sh.flushing {
		// A committer is running. Wait for our batch's flush — unless the
		// committer hands this batch off, making us the next committer.
		sh.mu.Unlock()
		select {
		case <-b.done:
			return b.err
		case <-b.lead:
			sh.mu.Lock()
		}
	}
	// Committer: flush batch b.
	sh.flushing = true
	sh.next = nil
	sh.mu.Unlock()
	b.err = sh.flush(b)
	close(b.done)
	// Hand off to a waiter of the batch that accumulated during our flush,
	// if any; it performs the next flush (each caller flushes at most once,
	// always for a batch containing its own op).
	sh.mu.Lock()
	if sh.next != nil {
		sh.next.lead <- struct{}{}
	} else {
		sh.flushing = false
	}
	sh.mu.Unlock()
	return b.err
}

// slowFlushPenalty is how many flushes stay on the certified path after a
// fast-path validation conflict before the fast path is probed again.
// Sustained cross-process contention thus pays the optimistic round on at
// most one flush in slowFlushPenalty+1, keeping contended throughput at the
// certified path's level, while a single transient conflict costs only a
// short window of 4-round flushes.
const slowFlushPenalty = 8

// flush commits batch b. Fast path (no penalty outstanding, no failed-flush
// ops pending): apply the batch to the committer's cached table and try the
// validated write — 3 rounds, or 1 validation round and NO register write
// if every op was a no-op. A validation conflict (foreign
// write landed) falls through to the certified read-modify-write, which
// rebases: decode the certified current table, re-apply the ops (they are
// plain set/delete closures, so re-application is idempotent and respects
// call order), and write the merged result at the certified successor —
// unless the re-applied batch changed nothing, in which case the write is
// elided and the certified read alone linearizes it. Failed flushes park
// their ops in uncommitted, which forces the certified path (and a real
// write) until one succeeds.
func (sh *storeShard) flush(b *commitBatch) (err error) {
	if sh.tracer != nil && sh.wTraced != nil {
		if op := sh.tracer.StartOp("FLUSH", fmt.Sprintf("%d ops", len(b.ops))); op != nil {
			sh.wTraced.SetOp(op)
			defer func() {
				sh.wTraced.SetOp(nil)
				sh.tracer.EndOp(op, err)
			}()
		}
	}
	defer func() {
		if err != nil {
			mFlushFailed.Inc()
		}
	}()
	// dirty tracks whether the cached table differs from what the register
	// held at lastTS once the ops are applied. Ops from failed flushes
	// always count as dirty: their values may have reached some objects at
	// an abandoned timestamp, so they must re-assert at a fresh one even if
	// the cached table already reflects them.
	dirty := false
	applied := false
	apply := func() {
		dirty = dirty || len(sh.uncommitted) > 0
		for _, op := range sh.uncommitted {
			if op(sh) {
				dirty = true
			}
		}
		for _, op := range b.ops {
			if op(sh) {
				dirty = true
			}
		}
		applied = true
	}

	if sh.writeClean != nil && sh.penalty == 0 && len(sh.uncommitted) == 0 {
		apply()
		if !dirty {
			ok, err := sh.validate()
			if err == nil && ok {
				mFlushNoop.Inc()
				return nil
			}
			if err == nil {
				// Validation conflict: enter the contention window exactly
				// as the dirty branch does, so no-op-heavy workloads under
				// sustained cross-process contention do not re-pay the
				// failed probe round on every flush.
				sh.penalty = slowFlushPenalty
			}
			// The certified path below re-checks from genuinely-read state
			// (and surfaces round errors).
		} else {
			sh.enc = shard.AppendSorted(sh.enc[:0], sh.keys, sh.table)
			p, ok, err := sh.writeClean(types.Value(sh.enc))
			if err != nil {
				sh.uncommitted = append(sh.uncommitted, b.ops...)
				return err
			}
			if ok {
				sh.lastTS = p.TS
				sh.advance(p)
				mFlushFast.Inc()
				return nil
			}
			sh.penalty = slowFlushPenalty
		}
	} else if sh.penalty > 0 {
		sh.penalty--
	}

	rebased := false
	p, err := sh.modify(func(cur types.Pair) (types.Value, error) {
		if cur.TS != sh.lastTS {
			t, err := shard.DecodeTable(string(cur.Val))
			if err != nil {
				// Unreachable against ≤ t Byzantine objects: the read only
				// returns values certified as genuinely written.
				return "", fmt.Errorf("robustatomic: shard register holds corrupt table: %w", err)
			}
			// Rebase: the foreign table replaces the cached one (discarding
			// any fast-path application of the ops) and the ops re-apply
			// against it from scratch.
			sh.table, sh.keys = t, shard.SortedKeys(t)
			sh.lastTS = cur.TS
			dirty, applied, rebased = false, false, true
		}
		if !applied {
			apply()
		}
		if !dirty && !rebased {
			// Elide only against OUR OWN completed head (or the recovery
			// read's, which an atomic read's write-back already asserted):
			// the certified read here is a regular read with no write-back,
			// so a rebased-onto foreign pair may be an incomplete write that
			// later atomic reads are permitted never to return — a no-op
			// anchored on it could vanish. Writing the rebased table at a
			// fresh successor (below) re-asserts it instead, exactly as the
			// pre-adaptive flush always did.
			return "", core.SkipWrite
		}
		sh.enc = shard.AppendSorted(sh.enc[:0], sh.keys, sh.table)
		return types.Value(sh.enc), nil
	})
	if err != nil {
		sh.uncommitted = append(sh.uncommitted, b.ops...)
		return err
	}
	sh.uncommitted = nil
	if p.TS != sh.lastTS {
		// The certified path wrote a newer head.
		sh.advance(p)
	}
	sh.lastTS = p.TS
	mFlushCertified.Inc()
	return nil
}

// Get returns the value under key. The read path is adaptive at every
// layer: an atomic shard read costs 2 communication rounds when the query
// rounds certify the decision as completely written (the write-back is
// elided; 4 rounds worst case, which the paper proves optimal), concurrent
// Gets on the shard coalesce into one shared protocol read (group commit,
// symmetric to Put's flush batching), and a read deciding on the cached
// certified timestamp skips decoding the shard table. Absent keys read as
// the empty string, matching the register initial value ⊥.
func (s *Store) Get(key string) (val string, err error) {
	if start := opStart(); !start.IsZero() {
		defer mGetLat.RecordSince(start)
	}
	sh, err := s.shards.Get(s.router.Locate(key))
	if err != nil {
		return "", err
	}
	table, err := sh.sharedRead()
	if err != nil {
		return "", err
	}
	return table[key], nil
}

// sharedRead returns the shard table as decided by a protocol read executed
// within the caller's operation interval — this caller's own, or a shared
// one the caller coalesced into (see getBatch). The leader-handoff protocol
// mirrors mutate: exactly one leader reads at a time, and the batch that
// accumulates during its read is handed to one of its waiters.
func (sh *storeShard) sharedRead() (map[string]string, error) {
	sh.rmu.Lock()
	b := sh.gnext
	if b == nil {
		b = newGetBatch()
		sh.gnext = b
	}
	if sh.greading {
		// A leader is running. Wait for our batch's shared read — unless the
		// leader hands this batch off, making us the next leader.
		b.waiters++
		sh.rmu.Unlock()
		select {
		case <-b.done:
			mGetCoalesced.Inc()
			return b.table, b.err
		case <-b.lead:
			sh.rmu.Lock()
		}
	}
	// Leader: one protocol read serves batch b.
	sh.greading = true
	sh.gnext = nil
	sh.rmu.Unlock()
	b.table, b.err = sh.readTable()
	close(b.done)
	sh.rmu.Lock()
	if sh.gnext != nil {
		sh.gnext.lead <- struct{}{}
	} else {
		sh.greading = false
	}
	sh.rmu.Unlock()
	return b.table, b.err
}

// readTable performs one atomic shard read and returns the decoded table,
// consulting and refreshing the certified-table cache.
func (sh *storeShard) readTable() (tab map[string]string, err error) {
	r := sh.pool.Acquire()
	defer sh.pool.Release(r)
	if sh.tracer != nil && r.traced != nil {
		if op := sh.tracer.StartOp("GET", fmt.Sprintf("shard %d", sh.idx)); op != nil {
			r.traced.SetOp(op)
			defer func() {
				r.traced.SetOp(nil)
				sh.tracer.EndOp(op, err)
			}()
		}
	}
	sh.cacheMu.Lock()
	known := sh.known
	sh.cacheMu.Unlock()
	p, err := r.readPair(known)
	if err != nil {
		return nil, err
	}
	if r.elided() {
		mGetElided.Inc()
	}
	sh.cacheMu.Lock()
	sh.learnLocked(p)
	if sh.cacheTab != nil && p.TS == sh.cacheTS {
		tab := sh.cacheTab
		sh.cacheMu.Unlock()
		mGetCacheHit.Inc()
		return tab, nil
	}
	sh.cacheMu.Unlock()
	table, err := shard.DecodeTable(string(p.Val))
	if err != nil {
		// Unreachable against ≤ t Byzantine objects: reads only return
		// values certified by t+1 objects, hence genuinely written ones.
		return nil, fmt.Errorf("robustatomic: shard %d returned corrupt table: %w", sh.idx, err)
	}
	sh.cacheMu.Lock()
	// Replace only forward: a concurrent slower read that decided an older
	// timestamp must not clobber a fresher entry (atomic reads are monotone
	// in real time, but two in-flight reads may complete out of order).
	if sh.cacheTab == nil || sh.cacheTS.Less(p.TS) {
		sh.cacheTS, sh.cacheTab = p.TS, table
	}
	sh.cacheMu.Unlock()
	return table, nil
}

// advance records p, a pair this process's committer just completed, as
// the register head. It drops the certified-table cache entry: the entry
// stays CORRECT (a timestamp names at most one certified value), but no
// future read can decide it, so holding a dead 14KB table only costs
// memory. And p becomes the pair the next reads name.
func (sh *storeShard) advance(p types.Pair) {
	sh.cacheMu.Lock()
	sh.cacheTab = nil
	sh.learnLocked(p)
	sh.cacheMu.Unlock()
}

// learnLocked replaces the known pair with p if p is newer: the pair a
// read names only saves bytes, so any genuine pair is safe, and the newest
// is the one objects most likely still hold. Callers hold cacheMu.
func (sh *storeShard) learnLocked(p types.Pair) {
	if sh.known.TS.Less(p.TS) {
		sh.known = p
	}
}
