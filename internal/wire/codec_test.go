package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"robustatomic/internal/types"
)

func sampleMessages() []types.Message {
	return []types.Message{
		{Kind: types.MsgRead1},
		{Kind: types.MsgAck, Seq: 42},
		{Kind: types.MsgPreWrite, Seq: 7, Pair: types.Pair{TS: types.TS{Seq: 3, WID: 2}, Val: "hello"}},
		{Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: ""}, Token: 0xdeadbeef, TokenPW: 1},
		{Kind: types.MsgState,
			PW: types.Pair{TS: types.TS{Seq: 9, WID: 1}, Val: "pw-val"},
			W:  types.Pair{TS: types.TS{Seq: 8, WID: 3}, Val: types.Value(strings.Repeat("x", 300))}},
		{Kind: types.MsgAck, PW: types.Pair{TS: types.TS{Seq: 5, WID: 4}}, W: types.Pair{TS: types.At(5)}},
		{Kind: types.MsgMux, Seq: 3, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgRead1, Seq: 3}},
			{Reg: types.ReaderReg(2), Msg: types.Message{
				Kind: types.MsgWriteBack,
				Pair: types.Pair{TS: types.At(11), Val: "wb"},
			}},
		}},
		// Negative and extreme integers must survive the signed varints.
		{Kind: types.MsgState, PW: types.Pair{TS: types.TS{Seq: 1<<62 + 3, WID: -5}, Val: "v"}},
		// Known-timestamp queries and their elided replies (mask bit 5).
		{Kind: types.MsgRead1, Pair: types.Pair{TS: types.TS{Seq: 12, WID: 1}}},
		{Kind: types.MsgState, Elided: types.ElidedPW | types.ElidedW,
			PW: types.Pair{TS: types.TS{Seq: 12, WID: 1}}, W: types.Pair{TS: types.TS{Seq: 12, WID: 1}}},
		{Kind: types.MsgMux, Seq: 8, Sub: []types.SubMsg{
			{Reg: types.WriterReg, Msg: types.Message{Kind: types.MsgState, Elided: types.ElidedW,
				PW: types.Pair{TS: types.At(13), Val: "pw"}, W: types.Pair{TS: types.At(12)}}},
			{Reg: types.ReaderReg(1), Msg: types.Message{Kind: types.MsgState, W: types.Pair{TS: types.At(2), Val: "wb"}}},
		}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var want []Request
	for i, m := range sampleMessages() {
		req := Request{ID: uint64(i)*977 + 1, From: types.Reader(i + 1), Reg: i * 3, Msg: m}
		if i%2 == 0 {
			req.From = types.WriterID(i)
			// The gen-4 epoch stamp must survive, including large epochs;
			// odd-indexed requests keep the epoch-0 wildcard.
			req.Epoch = uint64(i)<<40 + 7
		}
		want = append(want, req)
		if err := enc.EncodeRequest(req); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.DecodeRequest()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("request %d round trip:\n got %#v\nwant %#v", i, got, w)
		}
	}
	if _, err := dec.DecodeRequest(); err != io.EOF {
		t.Errorf("after stream end: %v, want io.EOF", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var want []Response
	for i, m := range sampleMessages() {
		rsp := Response{ID: uint64(i) << 33, Server: i + 1, Msg: m}
		want = append(want, rsp)
		if err := enc.EncodeResponse(rsp); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.DecodeResponse()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("response %d round trip:\n got %#v\nwant %#v", i, got, w)
		}
	}
}

// sampleBatches builds batch envelopes of varied widths from the sample
// messages: sub-requests for distinct register instances sharing one frame.
func sampleBatches() [][]SubReq {
	msgs := sampleMessages()
	var batches [][]SubReq
	for width := 1; width <= len(msgs); width += 3 {
		var subs []SubReq
		for i := 0; i < width; i++ {
			subs = append(subs, SubReq{Reg: i + 1, Msg: msgs[i]})
		}
		batches = append(batches, subs)
	}
	return batches
}

func TestBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var wantReq []Request
	var wantRsp []Response
	for i, subs := range sampleBatches() {
		req := Request{ID: uint64(i + 1), From: types.WriterID(i + 1), Subs: subs}
		rsp := Response{ID: uint64(i + 1), Server: i + 1, Subs: subs}
		wantReq = append(wantReq, req)
		wantRsp = append(wantRsp, rsp)
		if err := enc.EncodeRequest(req); err != nil {
			t.Fatalf("encode request %d: %v", i, err)
		}
		if err := enc.EncodeResponse(rsp); err != nil {
			t.Fatalf("encode response %d: %v", i, err)
		}
	}
	dec := NewDecoder(&buf)
	for i := range wantReq {
		gotReq, err := dec.DecodeRequest()
		if err != nil {
			t.Fatalf("decode request %d: %v", i, err)
		}
		if !reflect.DeepEqual(gotReq, wantReq[i]) {
			t.Errorf("batch request %d round trip:\n got %#v\nwant %#v", i, gotReq, wantReq[i])
		}
		gotRsp, err := dec.DecodeResponse()
		if err != nil {
			t.Fatalf("decode response %d: %v", i, err)
		}
		if !reflect.DeepEqual(gotRsp, wantRsp[i]) {
			t.Errorf("batch response %d round trip:\n got %#v\nwant %#v", i, gotRsp, wantRsp[i])
		}
	}
}

func TestDecodedValuesDoNotAliasDecoderBuffer(t *testing.T) {
	// The decoder reuses its payload buffer across frames; decoded pair
	// values must be copies, or the next frame would corrupt retained
	// register state.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	first := Request{From: types.Writer, Msg: types.Message{
		Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(1), Val: "first-value"}}}
	second := Request{From: types.Writer, Msg: types.Message{
		Kind: types.MsgWrite, Pair: types.Pair{TS: types.At(2), Val: "SECOND-VALUE-XXXX"}}}
	if err := enc.EncodeRequest(first); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeRequest(second); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	got1, err := dec.DecodeRequest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeRequest(); err != nil {
		t.Fatal(err)
	}
	if got1.Msg.Pair.Val != "first-value" {
		t.Errorf("first value corrupted by later frame: %q", got1.Msg.Pair.Val)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	// A gob stream (wire generation 1) begins with a gob length byte that
	// is not the binary generation's header — the lockstep-upgrade error
	// must surface on the first message.
	var buf bytes.Buffer
	if err := NewGobEncoder(&buf).Encode(Request{From: types.Writer, Msg: types.Message{Kind: types.MsgRead1}}); err != nil {
		t.Fatal(err)
	}
	_, err := NewDecoder(&buf).DecodeRequest()
	if err == nil {
		t.Fatal("gob frame accepted by binary decoder")
	}
	if !strings.Contains(err.Error(), "generation") {
		t.Errorf("version mismatch error unclear: %v", err)
	}
	if wireVersion != 0x05 {
		t.Fatalf("wire generation 0x%02x, want 0x05", wireVersion)
	}
	// Generation 4 (the epoch-stamped format without the elided flags) is
	// byte-compatible apart from the header: a gen-4 decoder would read an
	// elided slot as a genuine empty value, so its frames must be refused
	// by the header alone.
	buf.Reset()
	if err := NewEncoder(&buf).EncodeRequest(Request{From: types.Writer, Msg: types.Message{Kind: types.MsgRead1}}); err != nil {
		t.Fatal(err)
	}
	gen4 := append([]byte{0x04}, buf.Bytes()[1:]...)
	if _, err := NewDecoder(bytes.NewReader(gen4)).DecodeRequest(); err == nil || !strings.Contains(err.Error(), "generation") {
		t.Errorf("gen-4 frame: %v, want a generation mismatch", err)
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	// Payload prefix: [uvarint ID] [varint From.Kind] [varint From.Idx]
	// [tag]; the bytes 0, 2, 0 below are ID 0, kind 1, idx 0.
	cases := map[string][]byte{
		"empty payload":         {wireVersion, 0},
		"truncated payload":     {wireVersion, 10, 1, 2},
		"oversized frame":       {wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"bad version":           {0x7f, 1, 0},
		"missing frame tag":     append([]byte{wireVersion, 3}, 0, 2, 0),
		"unknown frame tag":     append([]byte{wireVersion, 4}, 0, 2, 0, 0x7f),
		"forged value length":   append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 2, 0, 1 /*mask pair*/, 2, 2), // pair claims bytes it doesn't have
		"forged sub count":      append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 22, 0, 16 /*mask sub*/, 0xff, 0x7f),
		"trailing bytes":        append([]byte{wireVersion, 10}, 0, 2, 0, tagSingle, 2, 2, 0, 0, 9, 9),
		"missing mask":          append([]byte{wireVersion, 7}, 0, 2, 0, tagSingle, 2, 2, 0),
		"zero batch count":      append([]byte{wireVersion, 5}, 0, 2, 0, tagBatch, 0),
		"forged batch count":    append([]byte{wireVersion, 7}, 0, 2, 0, tagBatch, 0xff, 0xff, 0x7f),
		"truncated batch entry": append([]byte{wireVersion, 7}, 0, 2, 0, tagBatch, 1, 2, 2),
		"truncated frame start": {wireVersion},
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := NewDecoder(bytes.NewReader(raw)).DecodeRequest(); err == nil {
				t.Errorf("malformed frame %q accepted", name)
			}
		})
	}
}

// TestDecodeRejectsNonCanonicalMessages: mask bits 6 and 7 are undefined,
// the elided flags byte must be present, non-zero and within
// ElidedPW|ElidedW, a present sub bundle must be non-empty, and the kind
// must fit MsgKind — so every message has exactly one encoding. Each case must fail for its own reason,
// not on a framing error.
func TestDecodeRejectsNonCanonicalMessages(t *testing.T) {
	// single frames a request payload — ID 0, From (1, 0), epoch 0, tag,
	// register 0 — around one message body.
	single := func(msg ...byte) []byte {
		payload := append([]byte{0, 2, 0, 0, tagSingle, 0}, msg...)
		return append([]byte{wireVersion, byte(len(payload))}, payload...)
	}
	read1, state := byte(2*types.MsgRead1), byte(2*types.MsgState) // zigzag kinds
	if _, err := NewDecoder(bytes.NewReader(single(state, 0, maskElided, byte(types.ElidedW)))).DecodeRequest(); err != nil {
		t.Fatalf("well-formed elided message rejected: %v", err)
	}
	cases := map[string]struct {
		frame []byte
		want  string
	}{
		"undefined mask bit 6":   {single(read1, 0, 1<<6), "undefined message mask"},
		"undefined mask bit 7":   {single(read1, 0, 1<<7|maskPair, 0, 0, 0), "undefined message mask"},
		"truncated elided flags": {single(state, 0, maskElided), "truncated elided flags"},
		"zero elided flags":      {single(state, 0, maskElided, 0), "undefined elided flags"},
		"undefined elided flag":  {single(state, 0, maskElided, 4|byte(types.ElidedPW)), "undefined elided flags"},
		"empty sub bundle":       {single(byte(2*types.MsgMux), 0, maskSub, 0), "empty sub-message bundle"},
		"kind out of range":      {single(append(binary.AppendVarint(nil, 1<<40|int64(types.MsgRead1)), 0, 0)...), "out of range"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.frame)).DecodeRequest()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestDeepNestingRejected(t *testing.T) {
	// Hand-build a frame whose message nests Sub beyond maxSubDepth: the
	// decoder must reject it rather than recurse unboundedly.
	msg := []byte{2, 0, 0} // kind, seq, empty mask
	for i := 0; i < maxSubDepth+2; i++ {
		inner := msg
		msg = append([]byte{22, 0, 16 /*mask sub*/, 1 /*count*/, 2, 0}, inner...)
	}
	payload := append([]byte{0, 2, 0, tagSingle, 0}, msg...) // id, from kind, idx, tag, reg
	frame := append([]byte{wireVersion, byte(len(payload))}, payload...)
	if _, err := NewDecoder(bytes.NewReader(frame)).DecodeRequest(); err == nil {
		t.Fatal("over-deep nesting accepted")
	}
}

// FuzzWireRequest: the binary decoder must never panic, and every frame it
// accepts must re-encode and re-decode to the same request.
func FuzzWireRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	enc := NewEncoder(&seedBuf)
	for i, m := range sampleMessages() {
		seedBuf.Reset()
		if err := enc.EncodeRequest(Request{From: types.Reader(i + 1), Reg: i, Msg: m}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), seedBuf.Bytes()...))
	}
	f.Add([]byte{wireVersion, 0x05, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := NewDecoder(bytes.NewReader(data)).DecodeRequest()
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := NewEncoder(&buf).EncodeRequest(req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := NewDecoder(&buf).DecodeRequest()
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip diverged:\n got %#v\nwant %#v", again, req)
		}
	})
}

// FuzzWireBatch hammers the batch frame path: a stream of frames (so seeds
// can carry duplicate request IDs across frames), malformed sub-bundle
// counts and truncated tags must yield errors, never panics, and every
// accepted envelope must round-trip.
func FuzzWireBatch(f *testing.F) {
	var seedBuf bytes.Buffer
	enc := NewEncoder(&seedBuf)
	for i, subs := range sampleBatches() {
		seedBuf.Reset()
		if err := enc.EncodeRequest(Request{ID: uint64(i + 9), From: types.WriterID(1), Subs: subs}); err != nil {
			f.Fatal(err)
		}
		// Two copies of the frame in one stream: duplicate request IDs are a
		// demux-layer concern, the codec must decode both identically.
		f.Add(append(append([]byte(nil), seedBuf.Bytes()...), seedBuf.Bytes()...))
		seedBuf.Reset()
		if err := enc.EncodeResponse(Response{ID: uint64(i + 9), Server: 2, Subs: subs}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), seedBuf.Bytes()...))
	}
	// Truncated tag, forged batch count, zero count.
	f.Add([]byte{wireVersion, 3, 0, 2, 0})
	f.Add([]byte{wireVersion, 7, 0, 2, 0, tagBatch, 0xff, 0xff, 0x7f})
	f.Add([]byte{wireVersion, 5, 0, 2, 0, tagBatch, 0})
	// Elided flags: a well-formed one-entry batch of an elided state
	// reply, then the same entry with its flags byte truncated, zeroed and
	// carrying an undefined bit, and an undefined mask bit.
	batch := func(tail ...byte) []byte {
		payload := append([]byte{0, 2, 0, 0, tagBatch, 1, 2, byte(2 * types.MsgState), 0}, tail...)
		return append([]byte{wireVersion, byte(len(payload))}, payload...)
	}
	f.Add(batch(maskElided, byte(types.ElidedW)))
	f.Add(batch(maskElided))
	f.Add(batch(maskElided, 0))
	f.Add(batch(maskElided, 0x80))
	f.Add(batch(1 << 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			req, err := dec.DecodeRequest()
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := NewEncoder(&buf).EncodeRequest(req); err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			again, err := NewDecoder(&buf).DecodeRequest()
			if err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("round trip diverged:\n got %#v\nwant %#v", again, req)
			}
		}
	})
}

// BenchmarkWireCodec contrasts the binary live codec against the gob
// streams it replaced, on the two message shapes that dominate the hot
// path: the small state reply of a read round and a table-carrying write.
func BenchmarkWireCodec(b *testing.B) {
	small := Response{Server: 3, Msg: types.Message{
		Kind: types.MsgState, Seq: 12,
		PW: types.Pair{TS: types.TS{Seq: 41, WID: 2}, Val: "pw"},
		W:  types.Pair{TS: types.TS{Seq: 40, WID: 2}, Val: "w"},
	}}
	large := Request{From: types.WriterID(2), Reg: 5, Msg: types.Message{
		Kind: types.MsgPreWrite, Seq: 9,
		Pair: types.Pair{TS: types.TS{Seq: 100, WID: 2}, Val: types.Value(strings.Repeat("k", 4096))},
	}}
	b.Run("binary/state-reply", func(b *testing.B) {
		benchBinary(b, func(e *Encoder) error { return e.EncodeResponse(small) },
			func(d *Decoder) error { _, err := d.DecodeResponse(); return err })
	})
	b.Run("binary/table-write", func(b *testing.B) {
		benchBinary(b, func(e *Encoder) error { return e.EncodeRequest(large) },
			func(d *Decoder) error { _, err := d.DecodeRequest(); return err })
	})
	b.Run("gob/state-reply", func(b *testing.B) {
		benchGob(b, small, func(d *GobDecoder) error { _, err := d.DecodeResponse(); return err })
	})
	b.Run("gob/table-write", func(b *testing.B) {
		benchGob(b, large, func(d *GobDecoder) error { _, err := d.DecodeRequest(); return err })
	})
}

// loopBuffer is an in-memory pipe: everything written is available to read.
type loopBuffer struct{ bytes.Buffer }

func benchBinary(b *testing.B, enc func(*Encoder) error, dec func(*Decoder) error) {
	var lb loopBuffer
	e := NewEncoder(&lb)
	d := NewDecoder(&lb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc(e); err != nil {
			b.Fatal(err)
		}
		if err := dec(d); err != nil {
			b.Fatal(err)
		}
	}
}

func benchGob(b *testing.B, v any, dec func(*GobDecoder) error) {
	var lb loopBuffer
	e := NewGobEncoder(&lb)
	d := NewGobDecoder(&lb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Encode(v); err != nil {
			b.Fatal(err)
		}
		if err := dec(d); err != nil {
			b.Fatal(err)
		}
	}
}
