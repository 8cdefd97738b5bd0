// Package types defines the shared vocabulary of the robust atomic storage
// implementation: register values, timestamp-value pairs, process identities
// and the wire message exchanged between clients and storage objects.
//
// The model extends Section 2 of "The Complexity of Robust Atomic Storage"
// (Dobre, Guerraoui, Majuntke, Suri, Vukolić; PODC 2011) from single-writer
// to multi-writer registers: writers w_1..w_W, readers r_1..r_R and storage
// objects s_1..s_S communicate over reliable point-to-point channels. Objects
// only reply to client messages; clients fail by crashing; up to t objects
// are Byzantine.
//
// The multi-writer extension replaces the paper's scalar timestamp with the
// classical lexicographically ordered (Seq, WriterID) pair (as in multi-writer
// ABD and the multi-writer data stores of Chockler et al. and RADON): two
// writers that concurrently pick the same sequence number still issue
// distinct, totally ordered timestamps. A writer learns the sequence number
// to exceed adaptively (internal/core): the optimistic fast path certifies
// its cached successor inside the 2-round write itself — the SWMR optimum —
// and only actual interference costs the extra discovery round the PODC
// 2011 lower bounds price into giving up the single-writer assumption.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is the register value domain. The initial register value is the
// reserved Bottom value, which is not a valid input to a write operation
// (Section 2.2 of the paper).
type Value string

// Bottom is the initial register value ⊥.
const Bottom Value = ""

// IsBottom reports whether v is the reserved initial value ⊥.
func (v Value) IsBottom() bool { return v == Bottom }

// String implements fmt.Stringer, rendering ⊥ visibly.
func (v Value) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	return string(v)
}

// TS is a multi-writer register timestamp: a lexicographically ordered
// (Seq, WriterID) pair. Seq is the sequence number a writer picked in its
// timestamp-discovery round; WID is the writer's identity, breaking ties
// between writers that concurrently picked the same sequence number. The
// zero TS is the timestamp of the initial pair holding ⊥. TS is comparable
// (usable as a map key).
type TS struct {
	Seq int64
	WID int64
}

// At is shorthand for a single-writer timestamp (WID 0) — the form every
// pre-multi-writer timestamp of this repository takes.
func At(seq int64) TS { return TS{Seq: seq} }

// Less orders timestamps lexicographically by (Seq, WID).
func (t TS) Less(u TS) bool {
	if t.Seq != u.Seq {
		return t.Seq < u.Seq
	}
	return t.WID < u.WID
}

// IsZero reports whether t is the initial timestamp.
func (t TS) IsZero() bool { return t == TS{} }

// Next returns the successor timestamp owned by writer wid: sequence number
// one past t's, tagged with wid.
func (t TS) Next(wid int64) TS { return TS{Seq: t.Seq + 1, WID: wid} }

// MaxTS returns the lexicographically larger timestamp.
func MaxTS(a, b TS) TS {
	if a.Less(b) {
		return b
	}
	return a
}

// String implements fmt.Stringer. Single-writer timestamps (WID 0) render as
// the bare sequence number, matching the repository's pre-multi-writer
// rendering; multi-writer timestamps render as seq.wid.
func (t TS) String() string {
	if t.WID == 0 {
		return strconv.FormatInt(t.Seq, 10)
	}
	return strconv.FormatInt(t.Seq, 10) + "." + strconv.FormatInt(t.WID, 10)
}

// Pair is a timestamp-value pair. Timestamps are totally ordered by the
// lexicographic (Seq, WriterID) order; the pair with the zero TS is the
// initial pair holding ⊥. Pair is comparable (usable as a map key), which
// the protocols rely on for exact-match certification of genuinely written
// pairs.
type Pair struct {
	TS  TS
	Val Value
}

// BottomPair is the initial register state (zero timestamp, value ⊥).
var BottomPair = Pair{TS: TS{}, Val: Bottom}

// Less orders pairs by timestamp. Values never disagree for equal timestamps
// of genuine pairs because a timestamp embeds its writer's identity and each
// writer issues any given sequence number at most once.
func (p Pair) Less(q Pair) bool { return p.TS.Less(q.TS) }

// IsBottom reports whether p is the initial pair.
func (p Pair) IsBottom() bool { return p.TS.IsZero() }

// String implements fmt.Stringer.
func (p Pair) String() string {
	return "(" + p.TS.String() + "," + p.Val.String() + ")"
}

// MaxPair returns the pair with the larger timestamp.
func MaxPair(a, b Pair) Pair {
	if b.TS.Less(a.TS) || a.TS == b.TS {
		return a
	}
	return b
}

// Token is a secret value attached to write phases in the stronger model of
// [DMSS09] (Section 5 of the paper). Tokens are unguessable nonces: a
// Byzantine object can replay tokens it received but cannot fabricate ones it
// has not seen. Token 0 means "no token" (unauthenticated model).
type Token uint64

// ProcKind distinguishes the three disjoint process sets of the model.
type ProcKind int

// Process kinds. Enums start at one so the zero ProcID is invalid.
const (
	KindWriter ProcKind = iota + 1
	KindReader
	KindServer
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case KindWriter:
		return "w"
	case KindReader:
		return "r"
	case KindServer:
		return "s"
	default:
		return "?"
	}
}

// ProcID identifies a process. Writers are {KindWriter, i} with i ≥ 0 (i is
// the WriterID embedded in the timestamps the writer issues); readers are
// {KindReader, i} with i ≥ 1; servers (storage objects) are {KindServer, i}
// with i ≥ 1 matching the paper's s_1..s_S.
type ProcID struct {
	Kind ProcKind
	Idx  int
}

// Writer is the identity of writer 0 — the default writer, and the only one
// of the original single-writer deployments.
var Writer = ProcID{Kind: KindWriter}

// WriterID returns the identity of writer w_i (0-based; 0 is the default
// writer). Distinct concurrent writer processes must use distinct ids.
func WriterID(i int) ProcID { return ProcID{Kind: KindWriter, Idx: i} }

// Reader returns the identity of reader r_i (1-based).
func Reader(i int) ProcID { return ProcID{Kind: KindReader, Idx: i} }

// Server returns the identity of storage object s_i (1-based).
func Server(i int) ProcID { return ProcID{Kind: KindServer, Idx: i} }

// IsClient reports whether the process is a writer or reader.
func (p ProcID) IsClient() bool { return p.Kind == KindWriter || p.Kind == KindReader }

// String implements fmt.Stringer. The default writer renders as the paper's
// bare "w"; further writers carry their id.
func (p ProcID) String() string {
	if p.Kind == KindWriter && p.Idx == 0 {
		return "w"
	}
	return fmt.Sprintf("%s%d", p.Kind, p.Idx)
}

// RegClass distinguishes the register instances multiplexed onto one physical
// object by the regular→atomic transformation (Section 5, footnote 6): one
// register shared by all writers plus one write-back register per reader.
type RegClass int

// Register classes.
const (
	// RegWriter is the writers' MWMR regular register: every writer writes
	// here, at timestamps totally ordered by (Seq, WriterID).
	RegWriter RegClass = iota + 1
	// RegReader is reader i's write-back register, single-writer-owned by
	// that reader (its timestamps keep WID 0).
	RegReader
)

// RegID identifies one register instance hosted on the storage objects.
type RegID struct {
	Class RegClass
	Idx   int // reader index for RegReader; 0 for RegWriter
}

// WriterReg is the RegID of the writer's register.
var WriterReg = RegID{Class: RegWriter}

// ReaderReg returns the RegID of reader i's write-back register.
func ReaderReg(i int) RegID { return RegID{Class: RegReader, Idx: i} }

// String implements fmt.Stringer.
func (r RegID) String() string {
	if r.Class == RegWriter {
		return "REGw"
	}
	return fmt.Sprintf("REGr%d", r.Idx)
}

// MsgKind enumerates protocol message types across all implemented protocols.
// It is 32 bits wide so that Message.Elided packs beside it: messages are
// copied by value on every hop, and their size is paid on each copy.
type MsgKind int32

// Message kinds. One shared message vocabulary keeps the simulator, the live
// runtime and the TCP wire format uniform across protocols.
const (
	// Regular register protocol (internal/regular) and derivatives.
	MsgPreWrite  MsgKind = iota + 1 // writer round 1: store pair in pw
	MsgWrite                        // writer round 2: store pair in w
	MsgRead1                        // reader round 1 / writer discovery: query (pw, w)
	MsgWriteBack                    // reader round 2: install certified pair
	MsgAck                          // generic acknowledgement
	MsgState                        // reply carrying (pw, w) state

	// ABD protocol (internal/abd).
	MsgABDQuery // read phase 1 / write phase 0: query timestamp
	MsgABDStore // store a pair
	MsgABDVal   // reply carrying a pair

	// Retry baseline (internal/retry).
	MsgConfirm // ask whether object vouches for a pair

	// Multiplexed physical round of the atomic transformation.
	MsgMux // bundle of per-register sub-messages

	// Dynamic reconfiguration (internal/config): an object refusing a
	// request stamped with a configuration epoch older than its active one.
	// The reply's Pair carries the refusing object's view of the new
	// configuration: Pair.TS.Seq is the active epoch and Pair.Val the
	// encoded config.Config, so redirected clients can refetch without an
	// extra round (the hint is still certified by a quorum read before it
	// is trusted — a Byzantine object can fabricate it).
	MsgWrongEpoch
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case MsgPreWrite:
		return "PREWRITE"
	case MsgWrite:
		return "WRITE"
	case MsgRead1:
		return "READ1"
	case MsgWriteBack:
		return "WRITEBACK"
	case MsgAck:
		return "ACK"
	case MsgState:
		return "STATE"
	case MsgABDQuery:
		return "ABD_QUERY"
	case MsgABDStore:
		return "ABD_STORE"
	case MsgABDVal:
		return "ABD_VAL"
	case MsgConfirm:
		return "CONFIRM"
	case MsgMux:
		return "MUX"
	case MsgWrongEpoch:
		return "WRONG_EPOCH"
	default:
		return "MSG(" + strconv.Itoa(int(k)) + ")"
	}
}

// SubMsg is a per-register payload inside a multiplexed physical round.
type SubMsg struct {
	Reg RegID
	Msg Message
}

// Message is the single wire message type. Fields beyond Kind are
// kind-specific; unused fields stay at their zero values. Using one concrete
// struct (rather than an interface hierarchy) keeps messages trivially
// copyable, comparable where needed, gob-encodable for the TCP transport and
// forgeable by simulated Byzantine objects.
type Message struct {
	Kind MsgKind

	// Elided marks the MsgState slots whose value was left out because the
	// query named their timestamp (a MsgRead1 whose Pair.TS is set names the
	// timestamp whose value the client already holds): the slot carries
	// only its timestamp, and the client puts its own copy back (Unelide).
	Elided Elision

	// Pair carries the written / queried / written-back pair.
	Pair Pair

	// PW and W carry an object's state in MsgState replies.
	PW Pair
	W  Pair

	// Token carries the secret value of the [DMSS09] model; TokenPW is the
	// token the object received with its current pw pair, Token the one with
	// its current w pair (or the fresh token on writes).
	Token   Token
	TokenPW Token

	// Seq numbers rounds within an operation so late replies from earlier
	// rounds are never mistaken for current-round replies.
	Seq int

	// Sub carries the per-register payloads of a MsgMux bundle.
	Sub []SubMsg
}

// Elision is the Message.Elided bit set.
type Elision uint8

// Elision bits, one per MsgState slot.
const (
	ElidedPW Elision = 1 << iota
	ElidedW

	// ElidedAll is every defined bit; the wire codec rejects any other.
	ElidedAll = ElidedPW | ElidedW
)

// Elide returns a MsgState reply's pw and w slots with the value stripped
// from each slot that sits at exactly the named timestamp, and the Elided
// bits marking them. The zero timestamp names nothing.
func Elide(named TS, pw, w Pair) (Pair, Pair, Elision) {
	if named.IsZero() {
		return pw, w, 0
	}
	var e Elision
	if pw.TS == named {
		pw.Val = Bottom
		e |= ElidedPW
	}
	if w.TS == named {
		w.Val = Bottom
		e |= ElidedW
	}
	return pw, w, e
}

// Unelide puts known's value back into every elided slot of m and clears
// the bits. It reports false — and m must then be dropped as a withheld
// reply — when an elided slot's timestamp is not known's: the value that
// slot stands for is one the client does not hold. Since a correct object
// holds at most one value per timestamp, and known is a genuine pair, the
// restored message is exactly what the object would have sent in full.
func (m *Message) Unelide(known Pair) bool {
	if m.Elided == 0 {
		return true
	}
	pw, w := m.Elided&ElidedPW != 0, m.Elided&ElidedW != 0
	if known.TS.IsZero() || m.Elided&^ElidedAll != 0 ||
		(pw && m.PW.TS != known.TS) || (w && m.W.TS != known.TS) {
		return false
	}
	if pw {
		m.PW.Val = known.Val
	}
	if w {
		m.W.Val = known.Val
	}
	m.Elided = 0
	return true
}

// TraceNote renders a compact payload summary for per-object trace events.
// Multiplexed bundles list the register instances they actually carry —
// which is exactly what a sub-bundle-withholding fault hides from the
// accumulators — other kinds render as their name.
func (m Message) TraceNote() string {
	if m.Kind != MsgMux {
		return m.Kind.String()
	}
	var b strings.Builder
	b.WriteString("MUX[")
	for i, sm := range m.Sub {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sm.Reg.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Clone returns a deep copy of m (the Sub slice is copied).
func (m Message) Clone() Message {
	out := m
	if m.Sub != nil {
		out.Sub = make([]SubMsg, len(m.Sub))
		for i, sm := range m.Sub {
			out.Sub[i] = SubMsg{Reg: sm.Reg, Msg: sm.Msg.Clone()}
		}
	}
	return out
}

// String implements fmt.Stringer.
func (m Message) String() string {
	switch m.Kind {
	case MsgState:
		return fmt.Sprintf("STATE{pw:%s w:%s}", m.PW, m.W)
	case MsgMux:
		return fmt.Sprintf("MUX{%d subs}", len(m.Sub))
	default:
		return fmt.Sprintf("%s%s", m.Kind, m.Pair)
	}
}
