package core

import (
	"fmt"
	"testing"

	"robustatomic/internal/checker"
	"robustatomic/internal/regular"
	"robustatomic/internal/server"
	"robustatomic/internal/sim"
	"robustatomic/internal/types"
)

// state is one object's MsgState sub-reply for register reg, inside the
// MUX reply the reader's query rounds receive.
func state(reg types.RegID, pw, w types.Pair, elided types.Elision) types.Message {
	return types.Message{Kind: types.MsgMux, Sub: []types.SubMsg{{Reg: reg, Msg: types.Message{
		Kind: types.MsgState, PW: pw, W: w, Elided: elided,
	}}}}
}

// TestMismatchedElidedSubReplyNeverCounted: a sub-reply eliding a timestamp
// other than the one the query named, or eliding on a register the query
// named nothing on, must be dropped before the accumulator sees it — it
// counts toward no quorum — while a matching one is restored in full.
func TestMismatchedElidedSubReplyNeverCounted(t *testing.T) {
	thr := th(t, 4, 1)
	known := types.Pair{TS: types.TS{Seq: 5, WID: 1}, Val: "v5"}
	other := types.Pair{TS: types.TS{Seq: 4, WID: 1}}
	acc := regular.NewReadAcc(thr)
	acc.MultiWriter = true
	wbAcc := regular.NewReadAcc(thr)
	mux := &muxAcc{
		parts: []MuxPart{{Reg: types.WriterReg, Acc: acc}, {Reg: types.ReaderReg(1), Acc: wbAcc}},
		known: known,
	}
	full := known
	// Round 1: two honest full replies, then two liars — one eliding an
	// unnamed timestamp on the shared register, one eliding on a
	// write-back register whose query named nothing.
	mux.Add(1, state(types.WriterReg, full, full, 0))
	mux.Add(2, state(types.WriterReg, full, full, 0))
	mux.Add(3, state(types.WriterReg, types.Pair{TS: known.TS}, other, types.ElidedPW|types.ElidedW))
	mux.Add(4, state(types.ReaderReg(1), types.Pair{TS: known.TS}, types.Pair{TS: known.TS}, types.ElidedW))
	if acc.Done() {
		t.Fatal("mismatched elided sub-reply counted toward the shared register's quorum")
	}
	if n := acc.WSupport(known.TS); n != 2 {
		t.Fatalf("w-support %d after two honest replies, want 2", n)
	}
	mux.Add(4, state(types.WriterReg, full, full, 0)) // elision on an unnamed register dropped too
	if wbAcc.Done() {
		t.Fatal("elided write-back sub-reply counted")
	}
	// Object 3's later genuine reply must still count: the dropped one
	// never claimed its slot.
	mux.Add(3, state(types.WriterReg, types.Pair{TS: known.TS}, types.Pair{TS: known.TS}, types.ElidedPW|types.ElidedW))
	if !acc.Done() {
		t.Fatal("matching elided sub-reply not counted")
	}

	// Round 2: matching elisions only. The decision must carry the value
	// restored from known, not the empty value the wire carried.
	acc.BeginDecide()
	for sid := 1; sid <= 3; sid++ {
		mux.Add(sid, state(types.WriterReg, types.Pair{TS: known.TS}, types.Pair{TS: known.TS}, types.ElidedPW|types.ElidedW))
	}
	if !acc.Done() {
		t.Fatal("no decision over restored replies")
	}
	if got := acc.Choice(); got != known {
		t.Fatalf("decided %v, want the restored %v", got, known)
	}

	// A query that named nothing accepts no elision at all.
	bare := regular.NewReadAcc(thr)
	none := &muxAcc{parts: []MuxPart{{Reg: types.WriterReg, Acc: bare}}}
	for sid := 1; sid <= 4; sid++ {
		none.Add(sid, state(types.WriterReg, types.Pair{TS: known.TS}, types.Pair{TS: known.TS}, types.ElidedW))
	}
	if bare.Done() {
		t.Fatal("elided sub-reply counted by a query that named no timestamp")
	}
}

// TestKnownReadsDespiteElideLiar: with t objects lying about elision
// (bits on unnamed timestamps, false claims to sit at the named one), reads
// naming a stale, a current or no known pair all return the latest write,
// and the history stays atomic.
func TestKnownReadsDespiteElideLiar(t *testing.T) {
	for _, tt := range []int{1, 2} {
		S := 3*tt + 1
		thr := th(t, S, tt)
		t.Run(fmt.Sprintf("t=%d", tt), func(t *testing.T) {
			cl := newCluster(thr, 2)
			h := &checker.History{}
			s := sim.New(sim.Config{Servers: S, History: h})
			defer s.Close()
			for i := 1; i <= tt; i++ {
				s.SetByzantine(i, &server.ElideLiar{})
			}
			var known types.Pair
			read := func(name string, v types.Value) {
				t.Helper()
				op := s.Spawn(name, types.Reader(1), checker.OpRead, types.Bottom, func(c *sim.Client) (types.Value, error) {
					r := NewReaderAt(c, cl.thr, 1, cl.readers, cl.seqs[1])
					p, err := r.ReadPairKnown(known)
					if err != nil {
						return types.Bottom, err
					}
					cl.seqs[1] = r.Seq()
					known = p
					return p.Val, nil
				})
				if got := mustRun(t, s, op); got != v {
					t.Errorf("%s = %q, want %q", name, got, v)
				}
			}
			read("rd0", types.Bottom)
			mustRun(t, s, s.Spawn("wa", types.Writer, checker.OpWrite, "a", cl.writeOp("a")))
			read("rd-a", "a")
			read("rd-a-current", "a")
			mustRun(t, s, s.Spawn("wb", types.Writer, checker.OpWrite, "b", cl.writeOp("b")))
			read("rd-b-stale-hint", "b")
			read("rd-b-current", "b")
			known = types.Pair{}
			read("rd-b-no-hint", "b")
			if err := checker.CheckAtomic(h); err != nil {
				t.Error(err)
			}
		})
	}
}
