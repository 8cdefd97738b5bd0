// Package server implements the storage-object automaton of the paper's
// model: a passive process that replies to client messages and never
// initiates communication, plus the Byzantine behaviors used for fault
// injection and for the lower-bound adversaries.
//
// One Store hosts any number of register instances (multiplexed by RegID),
// which is what the regular→atomic transformation of Section 5 needs: the
// writer's register and the R per-reader write-back registers live on the
// same S physical objects and share physical communication rounds.
package server

import (
	"encoding/binary"
	"fmt"
	"sort"

	"robustatomic/internal/obs"
	"robustatomic/internal/types"
)

// mStores counts register-instance automata created process-wide: the
// instance-count signal behind the per-daemon register gauges (instances
// are created on first touch and never destroyed short of process exit).
var mStores = obs.Default.Counter("server_store_instances_total")

// Automaton is a storage object's state machine. Handle processes one client
// message and returns the reply (objects reply to each message before
// receiving any other message, per the round model). Snapshot and Restore
// expose the full state — the lower-bound adversaries "forge the state to σ"
// by restoring snapshots taken at earlier points of a run, and the
// durability engine (internal/persist) persists and recovers it.
type Automaton interface {
	Handle(from types.ProcID, m types.Message) types.Message
	Snapshot() ([]byte, error)
	Restore(snap []byte) error
}

// RegState is the per-register state of a storage object in the regular
// register protocol: the pre-written pair pw, the written pair w, and the
// secret tokens received with each (zero outside the [DMSS09] model).
type RegState struct {
	PW      types.Pair
	W       types.Pair
	TokenPW types.Token
	TokenW  types.Token
}

// Store is the storage object automaton. The zero value is not usable; use
// NewStore. It is not safe for concurrent use; runtimes serialize access
// (the model's objects process one message at a time).
type Store struct {
	regs map[types.RegID]*RegState
	// ids holds regs' keys in ascending regLess order, maintained
	// incrementally on first touch so Snapshot never re-sorts — periodic
	// snapshotting must not degrade with instance count.
	ids []types.RegID
}

// NewStore returns an empty storage object.
func NewStore() *Store {
	mStores.Inc()
	return &Store{regs: make(map[types.RegID]*RegState)}
}

var _ Automaton = (*Store)(nil)

// regLess orders register IDs by (Class, Idx).
func regLess(a, b types.RegID) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.Idx < b.Idx
}

// reg returns the state of register id, creating it on first touch.
func (s *Store) reg(id types.RegID) *RegState {
	st, ok := s.regs[id]
	if !ok {
		st = &RegState{}
		s.regs[id] = st
		i := sort.Search(len(s.ids), func(i int) bool { return !regLess(s.ids[i], id) })
		s.ids = append(s.ids, types.RegID{})
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = id
	}
	return st
}

// Reg returns a copy of register id's current state (for tests and
// assertions).
func (s *Store) Reg(id types.RegID) RegState { return *s.reg(id) }

// Handle implements Automaton.
func (s *Store) Handle(from types.ProcID, m types.Message) types.Message {
	reply := s.handle(from, m, types.WriterReg)
	reply.Seq = m.Seq
	return reply
}

// handle dispatches one (possibly nested) message against register reg;
// top-level non-mux messages address the writer's register.
func (s *Store) handle(from types.ProcID, m types.Message, def types.RegID) types.Message {
	switch m.Kind {
	case types.MsgMux:
		out := types.Message{Kind: types.MsgMux, Sub: make([]types.SubMsg, len(m.Sub))}
		for i, sub := range m.Sub {
			out.Sub[i] = types.SubMsg{Reg: sub.Reg, Msg: s.handleReg(from, sub.Msg, sub.Reg)}
		}
		return out
	default:
		return s.handleReg(from, m, def)
	}
}

// handleReg processes a register-level message.
func (s *Store) handleReg(from types.ProcID, m types.Message, id types.RegID) types.Message {
	st := s.reg(id)
	switch m.Kind {
	case types.MsgPreWrite:
		// The acknowledgement piggybacks the timestamps the object held
		// BEFORE applying this prewrite (values stripped — validation only
		// compares timestamps): the writer's optimistic fast path reads a
		// quorum of these to certify that nothing newer than its cached
		// timestamp is in circulation, without a separate discovery round.
		prior := types.Message{
			Kind: types.MsgAck,
			PW:   types.Pair{TS: st.PW.TS},
			W:    types.Pair{TS: st.W.TS},
		}
		if st.PW.Less(m.Pair) {
			st.PW = m.Pair
			st.TokenPW = m.Token
		}
		return prior
	case types.MsgWrite, types.MsgWriteBack:
		if st.W.Less(m.Pair) {
			st.W = m.Pair
			st.TokenW = m.Token
		}
		return types.Message{Kind: types.MsgAck}
	case types.MsgRead1:
		// A query naming a timestamp (Pair.TS) already holds that
		// timestamp's value: a slot sitting exactly there replies with the
		// timestamp alone (see types.Elide).
		pw, w, elided := types.Elide(m.Pair.TS, st.PW, st.W)
		return types.Message{
			Kind:    types.MsgState,
			PW:      pw,
			W:       w,
			Elided:  elided,
			TokenPW: st.TokenPW,
			Token:   st.TokenW,
		}
	case types.MsgABDQuery:
		return types.Message{Kind: types.MsgABDVal, Pair: st.W}
	case types.MsgABDStore:
		if st.W.Less(m.Pair) {
			st.W = m.Pair
		}
		return types.Message{Kind: types.MsgAck}
	case types.MsgConfirm:
		// Vouch for a pair the object has seen at or above the queried
		// timestamp in its written state.
		if st.W == m.Pair || st.PW == m.Pair {
			return types.Message{Kind: types.MsgAck, Pair: m.Pair}
		}
		return types.Message{Kind: types.MsgState, PW: st.PW, W: st.W}
	default:
		return types.Message{Kind: types.MsgState, PW: st.PW, W: st.W}
	}
}

// Mutates reports whether handling m can advance a store's state. The
// durability layer logs exactly these messages (PREWRITE, WRITE, WRITEBACK,
// ABD_STORE, and any MUX bundle carrying one) before the reply leaves;
// everything else only queries state and needs no logging.
func Mutates(m types.Message) bool {
	switch m.Kind {
	case types.MsgPreWrite, types.MsgWrite, types.MsgWriteBack, types.MsgABDStore:
		return true
	case types.MsgMux:
		for _, sub := range m.Sub {
			if Mutates(sub.Msg) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Snapshot format: one version byte, a uvarint register count, then per
// register (in ascending regLess order) the RegID and RegState fields,
// integers as uvarints and values length-prefixed. The hand-rolled codec
// replaces the original per-call gob encoder: no type-descriptor preamble,
// no re-sorting (ids is maintained incrementally), one allocation.
//
// Version 0x03 carries multi-writer (Seq, WID) timestamps: each pair is
// Seq uvarint, WID uvarint, value. Version 0x02 (the PR 3 on-disk format)
// carried scalar timestamps — Restore still accepts it, decoding every
// timestamp as (Seq, WID 0), so pre-multi-writer snapshots replay cleanly.
const (
	snapshotVersion       = 0x03
	snapshotVersionScalar = 0x02
)

// Snapshot implements Automaton. The encoding is deterministic: equal states
// yield equal bytes.
func (s *Store) Snapshot() ([]byte, error) {
	size := 1 + binary.MaxVarintLen64
	for _, id := range s.ids {
		st := s.regs[id]
		size += 8*binary.MaxVarintLen64 + len(st.PW.Val) + len(st.W.Val)
	}
	b := make([]byte, 0, size)
	b = append(b, snapshotVersion)
	b = binary.AppendUvarint(b, uint64(len(s.ids)))
	for _, id := range s.ids {
		st := s.regs[id]
		b = binary.AppendUvarint(b, uint64(id.Class))
		b = binary.AppendUvarint(b, uint64(id.Idx))
		b = appendPair(b, st.PW)
		b = appendPair(b, st.W)
		b = binary.AppendUvarint(b, uint64(st.TokenPW))
		b = binary.AppendUvarint(b, uint64(st.TokenW))
	}
	return b, nil
}

// appendPair encodes a timestamp-value pair (sequence numbers are
// non-negative: writers issue them from 0 upward; the int64→uint64 uvarint
// round-trip is lossless regardless).
func appendPair(b []byte, p types.Pair) []byte {
	b = binary.AppendUvarint(b, uint64(p.TS.Seq))
	b = binary.AppendUvarint(b, uint64(p.TS.WID))
	b = binary.AppendUvarint(b, uint64(len(p.Val)))
	return append(b, string(p.Val)...)
}

// Restore implements Automaton. It accepts the current multi-writer format
// and the PR 3-era scalar-timestamp format (version 0x02).
func (s *Store) Restore(b []byte) error {
	if len(b) == 0 || (b[0] != snapshotVersion && b[0] != snapshotVersionScalar) {
		return fmt.Errorf("server: restore: bad snapshot header")
	}
	d := snapDecoder{b: b[1:], scalarTS: b[0] == snapshotVersionScalar}
	n := d.uvarint()
	if n > uint64(len(d.b)) { // each register costs ≥ 6 bytes; cheap bound
		return fmt.Errorf("server: restore: register count %d exceeds payload", n)
	}
	regs := make(map[types.RegID]*RegState, n)
	ids := make([]types.RegID, 0, n)
	for i := uint64(0); i < n; i++ {
		id := types.RegID{Class: types.RegClass(d.uvarint()), Idx: int(d.uvarint())}
		st := &RegState{}
		st.PW = d.pair()
		st.W = d.pair()
		st.TokenPW = types.Token(d.uvarint())
		st.TokenW = types.Token(d.uvarint())
		if d.err != nil {
			return fmt.Errorf("server: restore: truncated snapshot (register %d of %d)", i, n)
		}
		regs[id] = st
		ids = append(ids, id)
	}
	if len(d.b) != 0 {
		return fmt.Errorf("server: restore: %d trailing bytes", len(d.b))
	}
	// Snapshots are written in ascending order, but tolerate any order from
	// foreign producers: the incremental invariant must hold after Restore.
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return regLess(ids[i], ids[j]) }) {
		sort.Slice(ids, func(i, j int) bool { return regLess(ids[i], ids[j]) })
	}
	s.regs = regs
	s.ids = ids
	return nil
}

// snapDecoder cuts snapshot fields off a byte slice, latching the first
// error so call sites stay linear. scalarTS selects the legacy pair layout
// (no WID field; every timestamp decodes as WID 0).
type snapDecoder struct {
	b        []byte
	scalarTS bool
	err      error
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, w := binary.Uvarint(d.b)
	if w <= 0 {
		d.err = fmt.Errorf("truncated uvarint")
		return 0
	}
	d.b = d.b[w:]
	return x
}

func (d *snapDecoder) pair() types.Pair {
	seq := d.uvarint()
	var wid uint64
	if !d.scalarTS {
		wid = d.uvarint()
	}
	n := d.uvarint()
	if d.err != nil {
		return types.Pair{}
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("truncated value")
		return types.Pair{}
	}
	p := types.Pair{TS: types.TS{Seq: int64(seq), WID: int64(wid)}, Val: types.Value(d.b[:n])}
	d.b = d.b[n:]
	return p
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	out := &Store{
		regs: make(map[types.RegID]*RegState, len(s.regs)),
		ids:  append([]types.RegID(nil), s.ids...),
	}
	for id, st := range s.regs {
		cp := *st
		out.regs[id] = &cp
	}
	return out
}
