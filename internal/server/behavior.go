package server

import (
	"math/rand"

	"robustatomic/internal/types"
)

// Behavior customizes how a (possibly Byzantine) object answers a request.
// Reply returns the message to send and whether to send one at all: a false
// second result models an object that withholds its reply (asynchrony makes
// withholding indistinguishable from slowness, which is exactly what the
// lower-bound adversaries exploit).
//
// The model gives Byzantine objects full knowledge of the messages they
// received but no ability to fabricate data they never saw when the
// [DMSS09] secret-token restriction is in force; behaviors honoring that
// restriction only replay observed state (see ReplayOnly).
type Behavior interface {
	Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool)
}

// Honest answers faithfully. It is the behavior of correct objects.
type Honest struct{}

// Reply implements Behavior.
func (Honest) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	return inner.Handle(from, m), true
}

// Silent never replies but still processes the message (its state advances,
// matching a correct-but-slow object whose replies are lost until forever).
type Silent struct{}

// Reply implements Behavior.
func (Silent) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	inner.Handle(from, m)
	return types.Message{}, false
}

// Forge replaces the object's state with a snapshot the first time it
// replies, then behaves honestly from the forged state onward. This is the
// "forges its state to σ before replying" step of the proofs.
type Forge struct {
	Snap []byte
	done bool
}

// Reply implements Behavior.
func (f *Forge) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	if !f.done {
		if err := inner.Restore(f.Snap); err != nil {
			// A corrupt snapshot is a harness bug; surface it loudly by
			// answering garbage rather than hiding it.
			return types.Message{Kind: types.MsgState}, true
		}
		f.done = true
	}
	return inner.Handle(from, m), true
}

// Stale answers every read from a frozen past state while silently advancing
// its true state; write-class messages are acknowledged but reads never see
// them. It simulates an object stuck in the past. With Snap set, the frozen
// state is that explicit snapshot (the lower-bound constructions' "forge to
// σ"). With Snap nil, each register instance the object hosts is frozen at
// its state on first touch after injection — the right semantics for
// multi-register objects, where every shard must be served its own past.
type Stale struct {
	Snap   []byte
	frozen *Store            // Snap path: one frozen state for every instance
	perReg map[*Store]*Store // nil-Snap path: per-instance freeze on first touch
}

// Reply implements Behavior.
func (s *Stale) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	var frozen *Store
	if s.Snap != nil {
		if s.frozen == nil {
			s.frozen = NewStore()
			if err := s.frozen.Restore(s.Snap); err != nil {
				return types.Message{Kind: types.MsgState}, true
			}
		}
		frozen = s.frozen
	} else {
		if s.perReg == nil {
			s.perReg = make(map[*Store]*Store)
		}
		frozen = s.perReg[inner]
		if frozen == nil {
			frozen = inner.Clone()
			s.perReg[inner] = frozen
		}
	}
	reply := inner.Handle(from, m)
	if isReadOnly(m) {
		return frozen.Handle(from, m), true
	}
	return reply, true
}

// isReadOnly reports whether a message only queries state.
func isReadOnly(m types.Message) bool {
	switch m.Kind {
	case types.MsgRead1, types.MsgABDQuery, types.MsgConfirm:
		return true
	case types.MsgMux:
		for _, sub := range m.Sub {
			if !isReadOnly(sub.Msg) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Garbage fabricates wildly wrong replies: reads see a bogus high-timestamp
// pair with a value that was never written, writes are acknowledged but
// dropped. Because the fabricated pair is unique to this object, it can
// never be certified by t+1 distinct objects — the certification threshold
// is exactly what defeats it.
type Garbage struct {
	Level int64 // fabricated timestamp; huge by default
	Val   types.Value
}

// Reply implements Behavior.
func (g Garbage) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	level := g.Level
	if level == 0 {
		level = 1 << 40
	}
	val := g.Val
	if val == types.Bottom {
		val = "forged"
	}
	fake := types.Pair{TS: types.At(level), Val: val}
	switch m.Kind {
	case types.MsgRead1:
		return types.Message{Kind: types.MsgState, PW: fake, W: fake, Seq: m.Seq}, true
	case types.MsgABDQuery:
		return types.Message{Kind: types.MsgABDVal, Pair: fake, Seq: m.Seq}, true
	case types.MsgMux:
		out := types.Message{Kind: types.MsgMux, Seq: m.Seq, Sub: make([]types.SubMsg, len(m.Sub))}
		for i, sub := range m.Sub {
			r, _ := g.Reply(inner, from, sub.Msg)
			out.Sub[i] = types.SubMsg{Reg: sub.Reg, Msg: r}
		}
		return out, true
	case types.MsgPreWrite:
		// Poison the validation piggyback too: the ack's prior-state report
		// carries the fabricated timestamp, forcing the optimistic write's
		// fallback on every attempt (a liveness nuisance the adaptive flow
		// bounds, never a safety breach — the report is uncertified).
		return types.Message{Kind: types.MsgAck, PW: fake, W: fake, Seq: m.Seq}, true
	default:
		return types.Message{Kind: types.MsgAck, Seq: m.Seq}, true
	}
}

// Equivocate answers different client kinds with different behaviors — the
// classic split-brain attack (e.g. honest to the writer, stale to readers).
type Equivocate struct {
	Writer  Behavior // nil → Honest
	Readers Behavior // nil → Honest
}

// Reply implements Behavior.
func (e Equivocate) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	b := e.Readers
	if from.Kind == types.KindWriter {
		b = e.Writer
	}
	if b == nil {
		b = Honest{}
	}
	return b.Reply(inner, from, m)
}

// ReplayOnly is the strongest attack permitted under the [DMSS09]
// secret-token restriction: the object may answer with any (pair, token)
// tuple it has ever legitimately held — including stale ones — but cannot
// attach a valid token to a value it never received. It replays a uniformly
// chosen historical state per reply.
type ReplayOnly struct {
	Rand  *rand.Rand
	hist  []*Store
	limit int
}

// Reply implements Behavior.
func (r *ReplayOnly) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	// Record the pre-message state; bound history to keep memory finite.
	if r.limit == 0 {
		r.limit = 64
	}
	if len(r.hist) < r.limit {
		r.hist = append(r.hist, inner.Clone())
	}
	reply := inner.Handle(from, m)
	if len(r.hist) > 0 && r.Rand != nil {
		old := r.hist[r.Rand.Intn(len(r.hist))]
		stale := old.Handle(from, m)
		stale.Seq = m.Seq
		return stale, true
	}
	return reply, true
}

// ElideLiar abuses the elided bits of query replies (types.Elide).
// It keeps its true state and answers every message from it, but lies in
// its MsgRead1 replies, bare or inside a MUX bundle, alternating between
// two lies:
//   - it sets elided bits on slots at timestamps the query did not name,
//     stripping values the querier does not hold;
//   - when the query names a timestamp, it claims its pw slot sits exactly
//     there, bit set, whatever pair it actually holds.
//
// Neither lie can change a decision. The client drops a reply with a bit on
// an unnamed timestamp as withheld. The claimed pair is the genuine one the
// client named, which any object could have sent in full.
type ElideLiar struct{ n int }

// Reply implements Behavior.
func (l *ElideLiar) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	reply := inner.Handle(from, m)
	l.lie(m, &reply)
	return reply, true
}

// lie rewrites the reply r to query q (MUX replies are parallel to their
// query's bundle).
func (l *ElideLiar) lie(q types.Message, r *types.Message) {
	switch q.Kind {
	case types.MsgMux:
		for i := range r.Sub {
			l.lie(q.Sub[i].Msg, &r.Sub[i].Msg)
		}
	case types.MsgRead1:
		named := q.Pair.TS
		l.n++
		if l.n%2 == 0 && !named.IsZero() {
			r.PW = types.Pair{TS: named}
			r.Elided |= types.ElidedPW
			return
		}
		if r.PW.TS != named {
			r.PW.Val = types.Bottom
			r.Elided |= types.ElidedPW
		}
		if r.W.TS != named {
			r.W.Val = types.Bottom
			r.Elided |= types.ElidedW
		}
	}
}

// Flaky alternates between an inner behavior and silence.
type Flaky struct {
	Inner Behavior
	Rand  *rand.Rand
	// DropProb in [0,1]; default 0.5.
	DropProb float64
}

// Reply implements Behavior.
func (f Flaky) Reply(inner *Store, from types.ProcID, m types.Message) (types.Message, bool) {
	p := f.DropProb
	if p == 0 {
		p = 0.5
	}
	b := f.Inner
	if b == nil {
		b = Honest{}
	}
	msg, ok := b.Reply(inner, from, m)
	if !ok {
		return msg, false
	}
	if f.Rand != nil && f.Rand.Float64() < p {
		return types.Message{}, false
	}
	return msg, ok
}

var (
	_ Behavior = Honest{}
	_ Behavior = Silent{}
	_ Behavior = (*Forge)(nil)
	_ Behavior = (*Stale)(nil)
	_ Behavior = Garbage{}
	_ Behavior = Equivocate{}
	_ Behavior = (*ReplayOnly)(nil)
	_ Behavior = Flaky{}
	_ Behavior = (*ElideLiar)(nil)
)
