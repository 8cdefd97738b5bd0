// Package core implements the paper's upper bound (Section 5) promoted to
// multi-writer: a robust multi-writer multi-reader ATOMIC register with
// 3-round writes and 4-round reads, built from one MWMR regular register
// shared by all writers plus one write-back register per reader, hosted on
// the same S = 3t+1 Byzantine-prone storage objects — the classical
// regular → atomic transformation of [4, 20] referenced in the paper's
// footnote 6, with multi-writer ABD-style (Seq, WriterID) timestamps.
//
// Writes are ADAPTIVE (see fastpath.go): the writer optimistically proposes
// the successor of its own cached timestamp directly in the PREWRITE round,
// whose acknowledgements piggyback each object's prior timestamps; a quorum
// reporting nothing at or above the proposal certifies it, and the WRITE
// round completes the operation — 2 rounds, the paper's SWMR optimum,
// whenever no foreign writer interfered. Interference falls back to
// discovery (the failed prewrite's reports double as the discovery result:
// 3 rounds, the unconditional cost before the fast path) or, against
// Byzantine-inflated reports, to the certified read (5 rounds worst case).
// The lexicographic (Seq, WriterID) order totally orders even timestamps
// picked concurrently.
//
// Reads are ADAPTIVE too: the two query rounds — the regular reads of all
// registers multiplexed onto two physical rounds (a physical round carries
// one sub-request per register instance to every object) — always run, but
// the write-back into the reader's own register (two more rounds: PREWRITE,
// WRITE) is ELIDED whenever the query rounds themselves certify the chosen
// pair as completely written: a full quorum of S−t distinct objects
// w-reported the chosen timestamp (or higher) on the SHARED register. So a
// stable register reads in 2 rounds; only reads concurrent with a write, or
// reads whose evidence a Byzantine minority withheld, pay the full 4 rounds
// the paper's Prop. 1 proves necessary in the worst case — the lower bound
// binds exactly the executions that still take 4.
//
// Elision safety: the condition exhibits ≥ S−t distinct w-reporters at or
// above the chosen timestamp ts on the shared register, of which at most t
// lie, so at least S−2t ≥ t+1 CORRECT objects durably hold w ≥ ts (w slots
// are monotone at correct objects). Any later read's decision then returns
// a pair ≥ ts without our help: under the true fault set F*, the level
// ℓ* = min over those t+1 holders of their smallest w-report satisfies
// ℓ* ≥ ts and counts |F*| + (t+1) ≥ 2t+1 supporters, so λ(F*) ≥ ts and the
// decision's choice dominates it. The check runs against the shared
// register only — write-back registers hold ENCODED inner pairs whose inner
// timestamps are not monotone along the outer sequence across reader
// lifetimes, so quorum w-support there certifies nothing about ts.
//
// Atomicity argument (Section 2.2 properties, multi-writer form): (1) values
// travel only from writers through correct objects or genuinely-certified
// write-backs, so reads return written values; (2) a read succeeding a
// complete write at timestamp ts reads the shared register regularly and
// obtains a pair ≥ ts (the regular read's decision dominates every complete
// write); (3) pairs cannot be observed before some writer issues them;
// (4) a read rd2 succeeding rd1 sees a pair at least rd1's result: either
// rd1 completed its write-back before returning and rd2 reads that register
// regularly, or rd1 elided — in which case the elision evidence above
// already forces rd2's shared-register decision to dominate rd1's result —
// so there is no new/old inversion either way. Writes are ordered by their
// timestamps, which respect real time: a write's discovery round intersects
// every earlier complete write's WRITE quorum in a correct object, so its
// timestamp strictly dominates.
package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// Writer is one of the atomic register's writers, identified by its
// WriterID. Concurrent writers must use distinct ids; one writer handle is
// single-goroutine like every client of the model.
type Writer struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	wid     int64
	pw      PairWriter

	// FastWrites and FallbackWrites count Write calls that certified on the
	// optimistic 2-round path vs. fell back (instrumentation; the round
	// hook gives finer grain).
	FastWrites     int
	FallbackWrites int
}

// NewWriter returns writer 0's handle (the deployment's default writer).
func NewWriter(r proto.Rounder, th quorum.Thresholds) *Writer {
	return NewWriterAt(r, th, 0, types.TS{})
}

// NewWriterAt returns the handle of writer wid resuming from a known last
// timestamp (its own, or the highest foreign timestamp it observed).
func NewWriterAt(r proto.Rounder, th quorum.Thresholds, wid int64, last types.TS) *Writer {
	return &Writer{rounder: r, th: th, wid: wid, pw: regular.NewWriterAt(r, th, types.WriterReg, wid, last)}
}

// maxDiscoveryLead bounds how far past the writer's own knowledge an
// UNCERTIFIED discovery result may jump before the writer insists on
// certifying it. Honest sequence numbers advance by one per write, so any
// genuine lead above this bound (~4 billion intervening writes) is
// astronomically unlikely between two operations of one process — while a
// Byzantine object forging near-MaxInt64 reports exceeds it on the first
// try and gets routed to the certified read, which it cannot inflate. The
// bound also rate-limits slow-burn inflation: installed sequence numbers
// can grow by at most this much per (genuine) write, pushing ceiling
// exhaustion beyond 2^31 writes even under a sustained attack.
const maxDiscoveryLead = 1 << 32

// DiscoverNext runs one timestamp-discovery round and returns the successor
// timestamp writer wid should write at: one past the highest timestamp a
// quorum exhibits (or past own, whichever is larger). Any complete write's
// WRITE phase reached 2t+1 objects, of which at least one correct one is in
// this quorum of 2t+1 (out of 3t+1), so the successor strictly dominates
// every write that completed before the discovery began — which is what
// atomicity property (2) needs from write ordering.
//
// Since the adaptive fast path (fastpath.go) the hot write flow no longer
// runs a separate discovery round — a failed optimistic prewrite's
// validation reports carry the same information. DiscoverNext remains the
// reference implementation of the unconditional PR 4 flow (and the E12
// benchmark's always-discover baseline).
//
// The replies are uncertified, so a Byzantine object can inflate the
// discovered sequence number. Unchecked, one forged near-MaxInt64 reply
// would make the writer install a pair at the ceiling and wedge every
// writer forever; so whenever the raw result leads the writer's own
// timestamp implausibly (maxDiscoveryLead) or its successor would
// overflow, DiscoverNext falls back to CertifiedNext — the certified read
// decision only yields genuine timestamps, so the forgery costs two extra
// rounds instead of liveness. (A fresh writer attaching to a legitimately
// far-ahead register pays the certified path once; its own timestamp then
// catches up.) The label names the round for traces (e.g. "WDISC").
func DiscoverNext(r proto.Rounder, th quorum.Thresholds, wid int64, own types.TS, label string) (types.TS, error) {
	acc := regular.NewStateAcc(th)
	spec := proto.RoundSpec{
		Label: label,
		Req:   func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
		Acc:   acc,
	}
	if err := r.Round(spec); err != nil {
		return types.TS{}, fmt.Errorf("core: discovery: %w", err)
	}
	raw := types.MaxTS(acc.MaxTS(), own)
	next := raw.Next(wid)
	if next.Seq <= 0 || raw.Seq-own.Seq > maxDiscoveryLead {
		_, next, err := CertifiedNext(r, th, wid, own)
		if err != nil {
			return types.TS{}, err
		}
		if next.Seq <= 0 {
			return types.TS{}, fmt.Errorf("core: register sequence space exhausted")
		}
		return next, nil
	}
	return next, nil
}

// CertifiedNext runs a certified regular read of the shared register
// (2 rounds, the full decision procedure) and returns the current pair plus
// the successor timestamp for writer wid. Unlike DiscoverNext's raw quorum
// maximum, the decision only returns genuine pairs, so not even the
// timestamp can be Byzantine-inflated.
func CertifiedNext(r proto.Rounder, th quorum.Thresholds, wid int64, own types.TS) (types.Pair, types.TS, error) {
	rd := regular.NewReader(r, th, types.WriterReg)
	rd.MultiWriter = true
	cur, err := rd.ReadPair()
	if err != nil {
		return types.Pair{}, types.TS{}, fmt.Errorf("core: certified discovery: %w", err)
	}
	return cur, types.MaxTS(cur.TS, own).Next(wid), nil
}

// ModifyCertified runs the certified read-modify-write flow over any
// pair-writer: certified discovery, fn mapping the current pair to the
// value to install, write at the successor. A fn returning SkipWrite elides
// the write phases and yields the (certified) current pair unchanged. The
// successor is based on the writer's IssuedTS, so a pair abandoned by an
// earlier failed attempt is never re-issued with a different value.
func ModifyCertified(r proto.Rounder, th quorum.Thresholds, wid int64, fn func(cur types.Pair) (types.Value, error), pw PairWriter) (types.Pair, error) {
	cur, next, err := CertifiedNext(r, th, wid, pw.IssuedTS())
	if err != nil {
		return types.Pair{}, err
	}
	v, err := fn(cur)
	if errors.Is(err, SkipWrite) {
		return cur, nil
	}
	if err != nil {
		return types.Pair{}, err
	}
	if next.Seq <= 0 {
		return types.Pair{}, fmt.Errorf("core: register sequence space exhausted")
	}
	p := types.Pair{TS: next, Val: v}
	if err := pw.WritePair(p); err != nil {
		return types.Pair{}, err
	}
	return p, nil
}

// Write stores v adaptively (see fastpath.go): 2 rounds when the optimistic
// proposal certifies — the uncontended case, and the paper's SWMR optimum —
// falling back to discovery or the certified read under interference.
func (w *Writer) Write(v types.Value) error {
	fast, err := WriteAdaptive(w.rounder, w.th, w.wid, v, w.pw)
	if err == nil {
		if fast {
			w.FastWrites++
		} else {
			w.FallbackWrites++
		}
	}
	return err
}

// WriteClean attempts the validate-then-write flush fast path of
// WriteIfClean: one freshness round, then install v at the cached successor
// — 3 rounds, no decision procedure. The keyed Store's flush runs on it.
func (w *Writer) WriteClean(v types.Value) (types.Pair, bool, error) {
	return WriteIfClean(w.rounder, w.th, w.wid, v, w.pw)
}

// Validate runs the one-round freshness check of ValidateClean: true means
// a quorum confirmed the writer's LastTS is still the register's current
// timestamp (the no-write flush).
func (w *Writer) Validate() (bool, error) {
	return ValidateClean(w.rounder, w.th, w.pw)
}

// Modify performs a certified read-modify-write: a regular read of the
// shared register (2 rounds, certified by the decision procedure, so unlike
// the optimistic validation not even the timestamp can be
// Byzantine-inflated), then fn maps the current pair to the value to
// install, which the regular write's two rounds store at the successor
// timestamp. 4 rounds total; the keyed Store layer rebases onto foreign
// tables through Modify when the flush fast path detects interference.
//
// Modify is NOT an atomic read-modify-write across writers — registers
// cannot solve consensus, so two concurrent Modifys may read the same pair
// and the lexicographically larger writer's result prevails. It guarantees
// that the installed value derives from a genuine pair at least as fresh as
// the last complete write, which gives last-writer-wins semantics with no
// lost update unless the writes genuinely race.
func (w *Writer) Modify(fn func(cur types.Pair) (types.Value, error)) (types.Pair, error) {
	return ModifyCertified(w.rounder, w.th, w.wid, fn, w.pw)
}

// LastTS returns the timestamp of the last completed write.
func (w *Writer) LastTS() types.TS { return w.pw.LastTS() }

// Reader is one of the R readers of the atomic register.
type Reader struct {
	rounder proto.Rounder
	th      quorum.Thresholds
	idx     int // this reader's index, 1-based
	readers int // R
	seq     int64

	// Reusable round state, built on the first read and recycled after:
	// one two-round accumulator per register, the multiplexed parts
	// referencing them, and the sid-independent request bundle shared by
	// both query rounds, which names reqTS on the shared register.
	// Steady-state reads allocate nothing here, and between reads the
	// handle holds no register value (the accumulators are reset).
	regs  []types.RegID
	accs  []*regular.ReadAcc
	parts []MuxPart
	req   types.Message
	reqTS types.TS

	// Elided reports whether the last ReadPair skipped the write-back (the
	// query rounds certified the chosen pair as completely written).
	Elided bool
	// FastReads and FallbackReads count reads that elided the write-back
	// vs. paid the full 4 rounds (instrumentation; the round hook gives
	// finer grain).
	FastReads     int
	FallbackReads int
}

// NewReader returns the handle of reader idx out of `readers` total readers.
// A fresh handle discovers the sequence number its write-back register is at
// during its first read (every read queries its own register anyway), so a
// new process reattaching with an identity earlier lifetimes used is safe;
// CONCURRENT use of one reader identity remains forbidden.
func NewReader(r proto.Rounder, th quorum.Thresholds, idx, readers int) *Reader {
	return NewReaderAt(r, th, idx, readers, 0)
}

// NewReaderAt returns a reader resuming its write-back register from a known
// internal sequence number.
func NewReaderAt(r proto.Rounder, th quorum.Thresholds, idx, readers int, seq int64) *Reader {
	if idx < 1 || idx > readers {
		panic(fmt.Sprintf("core: reader index %d out of 1..%d", idx, readers))
	}
	return &Reader{rounder: r, th: th, idx: idx, readers: readers, seq: seq}
}

// Seq returns the reader's current write-back sequence number.
func (r *Reader) Seq() int64 { return r.seq }

// ResumeSeq returns the write-back sequence number a reader handle should
// resume from after reading its own register: prev (the handle's count so
// far), advanced to the raw maximum sequence number the query rounds
// reported. The raw maximum — not the certified choice — is what must never
// be re-issued: a crashed predecessor's prewrite may sit on a single object,
// invisible to certification, and re-issuing its sequence number with a
// different value would leave correct objects permanently disagreeing on one
// timestamp's value (equal timestamps never overwrite), each such pair
// spending a unit of the read decision's fault budget. But raw reports are
// Byzantine-inflatable, so — exactly like the writer's discovery
// (maxDiscoveryLead) — a raw lead past the certified anchor too large to be
// honest history is ignored rather than allowed to burn the sequence space.
func ResumeSeq(prev int64, cert, raw types.TS) int64 {
	seq := prev
	if cert.Seq > seq {
		seq = cert.Seq
	}
	if raw.Seq > seq && raw.Seq-cert.Seq <= maxDiscoveryLead {
		seq = raw.Seq
	}
	return seq
}

// Read performs the adaptive atomic read: 2 rounds when the query rounds
// certify the result as completely written, 4 otherwise.
func (r *Reader) Read() (types.Value, error) {
	p, err := r.ReadPair()
	return p.Val, err
}

// init builds the reader's reusable round state: accumulators, multiplexed
// parts, and the shared request bundle (read requests are sid-independent,
// and runtimes treat request messages as immutable, so one bundle serves
// every object in both query rounds).
func (r *Reader) init() {
	if r.accs != nil {
		return
	}
	r.regs = r.allRegs()
	r.accs = make([]*regular.ReadAcc, len(r.regs))
	r.parts = make([]MuxPart, len(r.regs))
	sub := make([]types.SubMsg, len(r.regs))
	for i, reg := range r.regs {
		// Every register runs the relaxed multi-writer decision: the shared
		// register (index 0) genuinely has many writers, and a write-back
		// register's owner resumes its sequence number by discovery (see
		// ReadPair), so its write at ℓ may follow a crashed predecessor's
		// ℓ−1 that never completed — the exact premise under which the
		// stricter SWMR causality filter would wrongly reject the true
		// fault set (see regular.DecideAcc.MultiWriter).
		r.accs[i] = regular.NewReadAcc(r.th)
		r.accs[i].MultiWriter = true
		r.parts[i] = MuxPart{
			Reg: reg,
			Req: func(int) types.Message { return types.Message{Kind: types.MsgRead1} },
			Acc: r.accs[i],
		}
		sub[i] = types.SubMsg{Reg: reg, Msg: types.Message{Kind: types.MsgRead1}}
	}
	r.req = types.Message{Kind: types.MsgMux, Sub: sub}
}

// muxSpec builds the query-round spec over the reader's prebuilt parts and
// shared request bundle (MuxRound minus the per-object bundle allocation).
// The bundle names known's timestamp on the shared register, and the
// accumulator puts known's value back into the slots objects elided.
func (r *Reader) muxSpec(label string, known types.Pair) proto.RoundSpec {
	if known.TS != r.reqTS {
		// Runtimes may still hold a sent bundle after its round returns, so
		// a new name takes a new bundle rather than an edit of the old one.
		sub := append([]types.SubMsg(nil), r.req.Sub...)
		sub[0].Msg.Pair.TS = known.TS
		r.req, r.reqTS = types.Message{Kind: types.MsgMux, Sub: sub}, known.TS
	}
	req := r.req
	return proto.RoundSpec{
		Label: label,
		Req:   func(int) types.Message { return req },
		Acc:   &muxAcc{parts: r.parts, known: known},
	}
}

// ReadPair performs the adaptive atomic read, returning the chosen
// timestamp-value pair.
func (r *Reader) ReadPair() (types.Pair, error) { return r.ReadPairKnown(types.Pair{}) }

// ReadPairKnown is ReadPair for a caller already holding known, a genuine
// pair of the shared register: one a read decided, or one this process's
// writer issued and completed. Both query rounds name known's timestamp,
// so objects whose slots sit exactly there reply without the value (see
// types.Elide); the reply is restored from known before any
// accumulator sees it, so the read's decision is unchanged. The zero pair
// names nothing. The handle keeps no reference to known after the read.
func (r *Reader) ReadPairKnown(known types.Pair) (types.Pair, error) {
	r.init()
	defer func() {
		for _, a := range r.accs {
			a.Reset()
		}
	}()

	// Physical round 1: round 1 of every register's regular read.
	if err := r.rounder.Round(r.muxSpec("AREAD1", known)); err != nil {
		return types.Pair{}, fmt.Errorf("core: read round 1: %w", err)
	}

	// Physical round 2: round 2 of every register's regular read, over the
	// frozen round-1 views.
	for _, a := range r.accs {
		a.BeginDecide()
	}
	if err := r.rounder.Round(r.muxSpec("AREAD2", known)); err != nil {
		return types.Pair{}, fmt.Errorf("core: read round 2: %w", err)
	}

	// Resume the write-back sequence number from the views just collected:
	// regs[r.idx] is this reader's own register, so the read's two query
	// rounds double as the discovery round a fresh handle needs. A handle
	// that restarted its count at zero would re-issue sequence numbers an
	// earlier lifetime of this identity already used, carrying this era's
	// (different) value; objects keep whichever write they saw first (equal
	// timestamps never overwrite), so correct objects end up durably
	// disagreeing on one timestamp's value — each such pair burns a unit of
	// the read decision's fault budget, and enough of them starve every
	// later read of this register ("all replies in, accumulator
	// unsatisfied"). Resuming must happen on BOTH the elided and the
	// fallback path: an elided read still observed the register, and the
	// next fallback write-back must not re-issue what it saw.
	r.seq = ResumeSeq(r.seq, r.accs[r.idx].Choice().TS, r.accs[r.idx].MaxTS())

	// The read's result is the maximum pair across the writer's register
	// and every reader's write-back register.
	best := r.accs[0].Choice() // writer's register holds pairs directly
	for i := 1; i < len(r.regs); i++ {
		p, err := DecodePair(r.accs[i].Choice().Val)
		if err != nil {
			return types.Pair{}, fmt.Errorf("core: write-back register %v: %w", r.regs[i], err)
		}
		best = types.MaxPair(best, p)
	}

	// Write-back elision: when a full quorum of S−t distinct objects
	// w-reported the chosen timestamp (or higher) on the SHARED register,
	// the chosen pair is already completely written — at least t+1 correct
	// objects durably hold it, which forces every later read's decision to
	// dominate it (see the package documentation's safety argument) — so
	// the 2-round write-back re-asserting it is pure cost. The check runs
	// against the shared register only: whatever register `best` surfaced
	// from, its value originates in shared-register pairs (write-back
	// registers hold encoded copies), and only the shared register's
	// w slots are monotone in best's timestamp order. Byzantine objects
	// cannot fake the condition (t forged reports < S−t) and can at worst
	// withhold it, costing rounds, never safety.
	if r.accs[0].WSupport(best.TS) >= r.th.Quorum() {
		r.Elided = true
		r.FastReads++
		return best, nil
	}
	r.Elided = false
	r.FallbackReads++

	// Physical rounds 3 and 4: write the result back into this reader's own
	// register before returning. Write-back registers are single-writer
	// (the reader owns its own), so their timestamps keep WID 0.
	if r.seq+1 <= 0 {
		return types.Pair{}, fmt.Errorf("core: write-back register sequence space exhausted")
	}
	wb := regular.NewWriterAt(r.rounder, r.th, types.ReaderReg(r.idx), 0, types.At(r.seq))
	if err := wb.WritePair(types.Pair{TS: types.At(r.seq + 1), Val: EncodePair(best)}); err != nil {
		return types.Pair{}, fmt.Errorf("core: write-back: %w", err)
	}
	r.seq++
	return best, nil
}

// allRegs returns the writer's register followed by every reader's
// write-back register.
func (r *Reader) allRegs() []types.RegID {
	regs := make([]types.RegID, 0, r.readers+1)
	regs = append(regs, types.WriterReg)
	for i := 1; i <= r.readers; i++ {
		regs = append(regs, types.ReaderReg(i))
	}
	return regs
}

// EncodePair encodes a pair as a register value for write-back registers:
// "seq|value" for single-writer timestamps (the exact pre-multi-writer
// encoding, so PR 3-era persisted write-back values keep round-tripping) and
// "seq.wid|value" for timestamps carrying a writer id.
func EncodePair(p types.Pair) types.Value {
	if p.IsBottom() {
		return types.Bottom
	}
	return types.Value(p.TS.String() + "|" + string(p.Val))
}

// DecodePair decodes a write-back register value, accepting both the legacy
// scalar "seq|value" form and the multi-writer "seq.wid|value" form. The
// empty value decodes to the initial pair.
func DecodePair(v types.Value) (types.Pair, error) {
	if v.IsBottom() {
		return types.BottomPair, nil
	}
	i := strings.IndexByte(string(v), '|')
	if i < 0 {
		return types.Pair{}, fmt.Errorf("core: malformed write-back payload %q", v)
	}
	head, rest := string(v)[:i], string(v)[i+1:]
	seqStr, widStr, hasWID := strings.Cut(head, ".")
	seq, err := strconv.ParseInt(seqStr, 10, 64)
	if err != nil || seq <= 0 {
		return types.Pair{}, fmt.Errorf("core: malformed write-back timestamp in %q", v)
	}
	var wid int64
	if hasWID {
		if wid, err = strconv.ParseInt(widStr, 10, 64); err != nil || wid == 0 {
			return types.Pair{}, fmt.Errorf("core: malformed write-back writer id in %q", v)
		}
	}
	return types.Pair{TS: types.TS{Seq: seq, WID: wid}, Val: types.Value(rest)}, nil
}

// MuxPart is one register's contribution to a multiplexed physical round.
type MuxPart struct {
	Reg types.RegID
	Req func(sid int) types.Message
	Acc proto.Accumulator
}

// muxAcc fans multiplexed replies out to the per-register accumulators; the
// physical round terminates when every register's round would. Sub-round
// accumulators are monotone, so the conjunction is monotone.
type muxAcc struct {
	parts []MuxPart
	// known is the pair the shared register's query named (zero: none).
	// Elided slots of its sub-replies get known's value back; a sub-reply
	// eliding any other timestamp, or any other register's, is dropped as
	// withheld, so no accumulator ever counts it.
	known types.Pair
}

// Add implements proto.Accumulator.
func (a *muxAcc) Add(sid int, m types.Message) {
	if m.Kind != types.MsgMux {
		return
	}
	for i := range m.Sub {
		reg, msg := m.Sub[i].Reg, &m.Sub[i].Msg
		if msg.Elided != 0 {
			var known types.Pair
			if reg == types.WriterReg {
				known = a.known
			}
			restored := *msg // the reply itself may be shared with the runtime
			if !restored.Unelide(known) {
				continue
			}
			msg = &restored
		}
		for j := range a.parts {
			if a.parts[j].Reg == reg {
				a.parts[j].Acc.Add(sid, *msg)
			}
		}
	}
}

// Done implements proto.Accumulator.
func (a *muxAcc) Done() bool {
	for i := range a.parts {
		if !a.parts[i].Acc.Done() {
			return false
		}
	}
	return true
}

// MuxRound builds the physical round bundling the given register rounds:
// every object receives one sub-request per register and replies with one
// sub-reply per register, so the bundled rounds advance in lockstep and
// cost a single physical round-trip.
func MuxRound(label string, parts []MuxPart) proto.RoundSpec {
	return proto.RoundSpec{
		Label: label,
		Req: func(sid int) types.Message {
			sub := make([]types.SubMsg, len(parts))
			for i, p := range parts {
				sub[i] = types.SubMsg{Reg: p.Reg, Msg: p.Req(sid)}
			}
			return types.Message{Kind: types.MsgMux, Sub: sub}
		},
		Acc: &muxAcc{parts: parts},
	}
}
