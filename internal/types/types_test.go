package types

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueBottom(t *testing.T) {
	if !Bottom.IsBottom() || !Value("").IsBottom() {
		t.Error("bottom detection")
	}
	if Value("x").IsBottom() {
		t.Error("non-bottom flagged")
	}
	if Bottom.String() != "⊥" || Value("x").String() != "x" {
		t.Error("value rendering")
	}
}

func TestTSOrdering(t *testing.T) {
	// Lexicographic (Seq, WID): sequence number first, writer id breaks ties.
	a, b, c := TS{Seq: 1, WID: 9}, TS{Seq: 2, WID: 0}, TS{Seq: 2, WID: 3}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) || c.Less(a) || a.Less(a) {
		t.Error("lexicographic order broken")
	}
	if MaxTS(a, c) != c || MaxTS(c, a) != c || MaxTS(b, b) != b {
		t.Error("MaxTS")
	}
	if n := c.Next(7); n.Seq != 3 || n.WID != 7 {
		t.Errorf("Next = %v", n)
	}
	if !(TS{}).IsZero() || (TS{WID: 1}).IsZero() || !At(0).IsZero() {
		t.Error("IsZero")
	}
	if At(5).String() != "5" || (TS{Seq: 5, WID: 2}).String() != "5.2" {
		t.Errorf("String: %q %q", At(5), TS{Seq: 5, WID: 2})
	}
}

func TestPairOrdering(t *testing.T) {
	if !BottomPair.IsBottom() || !BottomPair.TS.IsZero() {
		t.Error("bottom pair")
	}
	a, b := Pair{TS: At(1), Val: "a"}, Pair{TS: At(2), Val: "b"}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less")
	}
	if MaxPair(a, b) != b || MaxPair(b, a) != b || MaxPair(a, a) != a {
		t.Error("MaxPair")
	}
	if got := a.String(); got != "(1,a)" {
		t.Errorf("String = %q", got)
	}
}

func TestMaxPairProperties(t *testing.T) {
	// MaxPair is commutative up to timestamp ties and always returns one of
	// its arguments with the maximal timestamp.
	f := func(s1, s2, w1, w2 int64, v1, v2 string) bool {
		a := Pair{TS: TS{Seq: s1, WID: w1}, Val: Value(v1)}
		b := Pair{TS: TS{Seq: s2, WID: w2}, Val: Value(v2)}
		m := MaxPair(a, b)
		if m != a && m != b {
			return false
		}
		return !m.TS.Less(a.TS) && !m.TS.Less(b.TS)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProcIDs(t *testing.T) {
	if Writer.String() != "w" || !Writer.IsClient() {
		t.Error("writer id")
	}
	if Reader(3).String() != "r3" || !Reader(3).IsClient() {
		t.Error("reader id")
	}
	if Server(7).String() != "s7" || Server(7).IsClient() {
		t.Error("server id")
	}
	if KindWriter.String() != "w" || KindReader.String() != "r" || KindServer.String() != "s" {
		t.Error("kind strings")
	}
	if ProcKind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

func TestRegIDs(t *testing.T) {
	if WriterReg.String() != "REGw" {
		t.Errorf("writer reg = %q", WriterReg.String())
	}
	if ReaderReg(2).String() != "REGr2" {
		t.Errorf("reader reg = %q", ReaderReg(2).String())
	}
	if WriterReg == ReaderReg(0) {
		t.Error("register classes collide")
	}
}

func TestMsgKindStrings(t *testing.T) {
	kinds := []MsgKind{
		MsgPreWrite, MsgWrite, MsgRead1, MsgWriteBack, MsgAck, MsgState,
		MsgABDQuery, MsgABDStore, MsgABDVal, MsgConfirm, MsgMux,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d renders %q (dup or empty)", k, s)
		}
		seen[s] = true
	}
	if MsgKind(99).String() != "MSG(99)" {
		t.Error("unknown kind rendering")
	}
}

func TestMessageClone(t *testing.T) {
	m := Message{
		Kind: MsgMux,
		Sub: []SubMsg{
			{Reg: WriterReg, Msg: Message{Kind: MsgWrite, Pair: Pair{TS: At(1), Val: "a"}}},
		},
	}
	c := m.Clone()
	c.Sub[0].Msg.Pair.Val = "mutated"
	if m.Sub[0].Msg.Pair.Val != "a" {
		t.Error("Clone aliases Sub")
	}
}

func TestMessageString(t *testing.T) {
	if s := (Message{Kind: MsgState, PW: Pair{TS: At(1), Val: "a"}, W: BottomPair}).String(); s != "STATE{pw:(1,a) w:(0,⊥)}" {
		t.Errorf("state string = %q", s)
	}
	if s := (Message{Kind: MsgMux, Sub: make([]SubMsg, 3)}).String(); s != "MUX{3 subs}" {
		t.Errorf("mux string = %q", s)
	}
	if s := (Message{Kind: MsgWrite, Pair: Pair{TS: At(2), Val: "b"}}).String(); s != "WRITE(2,b)" {
		t.Errorf("write string = %q", s)
	}
}

func TestElideUnelide(t *testing.T) {
	known := Pair{TS: TS{Seq: 4, WID: 2}, Val: "table"}
	full := Message{Kind: MsgState, PW: known, W: Pair{TS: At(3), Val: "old"}}
	if pw, w, e := Elide(TS{}, full.PW, full.W); pw != full.PW || w != full.W || e != 0 {
		t.Fatalf("zero timestamp elided: %v %v %v", pw, w, e)
	}
	m := full
	m.PW, m.W, m.Elided = Elide(known.TS, full.PW, full.W)
	if m.Elided != ElidedPW || m.PW != (Pair{TS: known.TS}) || m.W != full.W {
		t.Fatalf("elide: %+v", m)
	}
	restored := m
	if !restored.Unelide(known) || !reflect.DeepEqual(restored, full) {
		t.Fatalf("unelide: %+v, want %+v", restored, full)
	}
	for name, k := range map[string]Pair{
		"other timestamp": {TS: At(3), Val: "old"},
		"nothing known":   {},
	} {
		bad := m
		if bad.Unelide(k) {
			t.Errorf("%s: mismatched elision accepted: %+v", name, bad)
		}
	}
	undefined := m
	undefined.Elided |= 1 << 5
	if undefined.Unelide(known) {
		t.Error("undefined elided bit accepted")
	}
	if plain := full; !plain.Unelide(Pair{}) || !reflect.DeepEqual(plain, full) {
		t.Error("unelided message changed by Unelide")
	}
}
