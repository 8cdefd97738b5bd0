// Adaptive round complexity: the multi-writer write flows shared by the
// plain (unauthenticated) and secret-token models.
//
// PR 4's multi-writer promotion paid for timestamp discovery on EVERY
// write: a lone writer knows the highest timestamp (its own), concurrent
// writers must discover it, so writes grew from the SWMR-optimal 2 rounds
// to 3. But the paper's lower bounds price rounds against *actual*
// adversarial behavior, and its optimal read is the template: a fast path
// for contention-free executions, a fallback when interference shows. The
// flows here apply that shape to writes:
//
//   - WriteAdaptive (the plain Write): the writer optimistically proposes
//     the successor of its own cached timestamp directly in the PREWRITE
//     round; each object's acknowledgement piggybacks the highest timestamp
//     it held before applying the prewrite. A quorum reporting nothing at
//     or above the proposal certifies it — every write that completed
//     before this one began reached a correct member of the quorum, whose
//     report would have exposed it — and the WRITE round finishes the
//     operation: 2 rounds, the SWMR optimum, whenever no foreign writer
//     (or forger) interfered. On a reported-higher reply the failed
//     prewrite itself doubles as the discovery round (its reports are
//     exactly what DiscoverNext would have collected), so a genuinely
//     contended write costs 3 rounds — the PR 4 constant — and only a
//     Byzantine-inflated report escalates to the certified read (5 rounds,
//     the PR 4 worst case; the maxDiscoveryLead bound keeps sequence
//     numbers sane either way).
//
//   - WriteIfClean (the Store flush fast path): validate-then-write. The
//     flush's value DERIVES from the table cached at the writer's base
//     timestamp, so it must not enter circulation — not even as a
//     prewrite — until the base is known current: a prewritten pair is
//     readable as a concurrent write, and a stale-derived table at a
//     dominating timestamp would let a reader resurrect a key value that a
//     foreign writer's already-completed Put replaced. WriteIfClean
//     therefore runs one read round FIRST (no timestamp beyond the base in
//     circulation — any write completed before the flush began reached a
//     correct quorum member, whose report exposes it) and only then the
//     two blind write phases at the cached successor: 3 rounds, down from
//     the certified read-modify-write's 4, and — unlike the certified
//     read — without the decision procedure's fault-set enumeration on the
//     hot path. On a reported-higher conflict nothing is written and the
//     caller rebases through the certified path. Foreign writes that land
//     AFTER the validation round are concurrent with the flush — the
//     documented last-writer-wins shard race, exactly as with the
//     certified path's read→write gap.
//
//   - ValidateClean: the degenerate flush — a batch whose mutations all
//     turned out to be no-ops needs no register write at all, just one
//     read round confirming the cached base is still current (Byzantine
//     objects can force the fallback by over-reporting, but can never fake
//     freshness: hiding a completed foreign write would require every
//     correct quorum member to miss it, and quorum intersection forbids
//     that).
//
// Abandoned prewrites (a fast path that lost its validation) are safe: the
// protocol already tolerates a writer crashing between PREWRITE and WRITE,
// and the writer records every proposed timestamp as issued, so a later
// write can never re-issue an abandoned timestamp with a different value
// (which would break the decide procedure's value-agreement invariant).
package core

import (
	"errors"
	"fmt"

	"robustatomic/internal/proto"
	"robustatomic/internal/quorum"
	"robustatomic/internal/regular"
	"robustatomic/internal/types"
)

// PairWriter is the two-phase pair writer the adaptive flows drive: the
// plain regular.Writer, or the secret model's token-carrying one. LastTS is
// the last COMPLETED write's timestamp; IssuedTS additionally covers
// proposals that never completed and is what successor timestamps must
// exceed.
type PairWriter interface {
	PreWritePair(p types.Pair) (types.TS, error)
	CommitPair(p types.Pair) error
	WritePair(p types.Pair) error
	LastTS() types.TS
	IssuedTS() types.TS
}

var (
	_ PairWriter = (*regular.Writer)(nil)
)

// SkipWrite is the sentinel a ModifyCertified callback returns to elide the
// write phases: the certified read still ran (so the caller's view is
// genuinely current), but nothing is installed and the current pair is
// returned unchanged.
var SkipWrite = errors.New("core: modify produced no change, write elided")

// WriteAdaptive stores v through pw with the optimistic fast path described
// in the package comment: 2 rounds uncontended, 3 under genuine write
// contention, 5 when a Byzantine report forces the certified fallback. It
// reports whether the fast path certified.
func WriteAdaptive(r proto.Rounder, th quorum.Thresholds, wid int64, v types.Value, pw PairWriter) (bool, error) {
	if v.IsBottom() {
		return false, fmt.Errorf("core: cannot write the reserved initial value ⊥")
	}
	base := pw.IssuedTS()
	proposed := base.Next(wid)
	if proposed.Seq <= 0 {
		// Sequence ceiling: only the certified read yields a trustworthy
		// current timestamp to judge exhaustion by.
		return false, writeAtCertified(r, th, wid, base, v, pw)
	}
	p := types.Pair{TS: proposed, Val: v}
	prior, err := pw.PreWritePair(p)
	if err != nil {
		return false, err
	}
	if prior.Less(proposed) {
		// Certified: nothing at or above the proposal was in circulation
		// when the quorum acknowledged, so the proposal dominates every
		// complete write and the WRITE round can finish the operation.
		return true, pw.CommitPair(p)
	}
	// Interference. The validation reports are exactly a discovery round's
	// input (uncertified quorum maximum), so reuse them: write at their
	// successor unless the lead is implausible (Byzantine inflation) or
	// overflowing — then only the certified read's genuine timestamp will
	// do. See maxDiscoveryLead for the bound's rationale.
	// The floor passed down is base, not proposed: re-issuing the abandoned
	// proposal's timestamp is safe HERE because it would carry the same
	// value v (value agreement is per (timestamp, value)); only later
	// operations, which carry other values, must stay above IssuedTS.
	next := prior.Next(wid)
	if next.Seq <= 0 || prior.Seq-base.Seq > maxDiscoveryLead {
		return false, writeAtCertified(r, th, wid, base, v, pw)
	}
	return false, pw.WritePair(types.Pair{TS: next, Val: v})
}

// writeAtCertified installs v at the successor of the certified current
// timestamp (own is the floor the successor must additionally exceed).
func writeAtCertified(r proto.Rounder, th quorum.Thresholds, wid int64, own types.TS, v types.Value, pw PairWriter) error {
	_, next, err := CertifiedNext(r, th, wid, own)
	if err != nil {
		return err
	}
	if next.Seq <= 0 {
		return fmt.Errorf("core: register sequence space exhausted")
	}
	return pw.WritePair(types.Pair{TS: next, Val: v})
}

// WriteIfClean attempts the flush fast path (see the package comment's
// validate-then-write discussion): one read round confirms no timestamp
// beyond the caller's cached base (pw.LastTS()) is in circulation — the
// cached view the value v derives from is still current, so no rebase is
// needed and nothing stale-derived ever enters circulation — then the two
// write phases install v at the cached successor, which the validation
// guarantees dominates every previously-completed write. Returns
// (pair, true, nil) on success and (Pair{}, false, nil) on a validation
// conflict (nothing written; the caller rebases through the certified
// read-modify-write). A failed earlier proposal (IssuedTS beyond LastTS)
// also routes to the certified path, which alone may pick timestamps then.
func WriteIfClean(r proto.Rounder, th quorum.Thresholds, wid int64, v types.Value, pw PairWriter) (types.Pair, bool, error) {
	if v.IsBottom() {
		return types.Pair{}, false, fmt.Errorf("core: cannot write the reserved initial value ⊥")
	}
	ok, err := ValidateClean(r, th, pw)
	if err != nil || !ok {
		return types.Pair{}, false, err
	}
	proposed := pw.LastTS().Next(wid)
	if proposed.Seq <= 0 {
		return types.Pair{}, false, nil
	}
	p := types.Pair{TS: proposed, Val: v}
	if err := pw.WritePair(p); err != nil {
		return types.Pair{}, false, err
	}
	return p, true, nil
}

// ValidateClean runs one read round and reports whether a quorum confirms
// no timestamp beyond the caller's cached base (pw.LastTS()) — the no-write
// flush: a batch of no-op mutations is correct to elide exactly when the
// cached table is still the register's current value, which this round
// witnesses. Byzantine objects can only force a false negative (the caller
// then pays the certified path); a false positive would need every correct
// quorum member to miss a completed foreign write, which quorum
// intersection rules out.
func ValidateClean(r proto.Rounder, th quorum.Thresholds, pw PairWriter) (bool, error) {
	base := pw.LastTS()
	if base.Less(pw.IssuedTS()) {
		return false, nil
	}
	// The query names base: objects still at it reply without the value,
	// which the timestamp-only BitAcc never reads anyway.
	req := func(int) types.Message {
		return types.Message{Kind: types.MsgRead1, Pair: types.Pair{TS: base}}
	}
	acc := proto.NewBitAcc(types.MsgState, th.Quorum())
	spec := proto.RoundSpec{Label: "WVAL", Req: req, Acc: acc}
	if err := r.Round(spec); err != nil {
		return false, fmt.Errorf("core: validate: %w", err)
	}
	return !base.Less(acc.MaxTS()), nil
}
