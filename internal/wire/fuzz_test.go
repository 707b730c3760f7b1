package wire

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

// Robustness: decoding arbitrary bytes must never panic — it either
// returns a packet or an error. The aggregator and worker receive raw
// datagrams from the network, so the decoders are an attack/corruption
// surface.

func TestDecodePacketNeverPanics(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size)%2048)
		r.Read(buf)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("DecodePacket panicked on %d bytes: %v", len(buf), p)
			}
		}()
		_, _ = DecodePacket(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSparsePacketNeverPanics(t *testing.T) {
	f := func(seed int64, size uint16) bool {
		r := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(size)%2048)
		r.Read(buf)
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("DecodeSparsePacket panicked: %v", p)
			}
		}()
		_, _ = DecodeSparsePacket(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Flipping any single byte of a valid packet must not panic either (it
// may decode to a different valid packet or fail).
func TestDecodePacketBitflips(t *testing.T) {
	p := &Packet{
		Type: TypeData, Version: 1, Slot: 3, WID: 2, TensorID: 9,
		BlockSize: 8,
		Nexts:     []uint32{16, Inf(1)},
		Blocks:    []Block{{Index: 4, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}},
	}
	buf := AppendPacket(nil, p)
	for i := range buf {
		for _, b := range []byte{0x00, 0xFF, buf[i] ^ 0x01} {
			mut := append([]byte(nil), buf...)
			mut[i] = b
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic with byte %d set to %#x: %v", i, b, r)
					}
				}()
				_, _ = DecodePacket(mut)
			}()
		}
	}
}

// seedPackets are valid encodings of representative packets, used both as
// fuzz seeds and by the corpus generator.
func seedPackets() [][]byte {
	ps := []*Packet{
		{Type: TypeData, Version: 1, Slot: 3, WID: 2, TensorID: 9, BlockSize: 8,
			Nexts:  []uint32{16, Inf(1)},
			Blocks: []Block{{Index: 4, Data: []float32{1, 2, 3, 4, 5, 6, 7, 8}}}},
		{Type: TypeResult, Version: 200, Slot: 0, WID: 0, TensorID: 1, BlockSize: 4,
			Nexts:  []uint32{Inf(0), Inf(1), Inf(2), Inf(3)},
			Blocks: nil}, // pure ack / completion
		{Type: TypeData, DType: DTypeF16, Version: 7, Slot: 1, WID: 5, TensorID: 3,
			BlockSize: 2, Nexts: []uint32{8, 9, 10},
			Blocks: []Block{
				{Index: 3, Data: []float32{0.5, -2}},
				{Index: 4, Data: []float32{65504, 0}},
				{Index: 5, Data: []float32{1}}, // short tail block
			}},
	}
	var out [][]byte
	for _, p := range ps {
		out = append(out, AppendPacket(nil, p))
	}
	out = append(out, AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseData, WID: 1, TensorID: 2, NextKey: 77,
		Keys: []uint32{3, 9, 40}, Values: []float32{1, -1, 0.25},
	}))
	out = append(out, AppendSparsePacket(nil, &SparsePacket{
		Type: TypeSparseResult, WID: 0, TensorID: 2, NextKey: InfKey,
	}))
	return out
}

// chaosMutations derives deterministic corruptions of buf — the same
// damage the chaos fabric and a hostile network inflict: truncation,
// duplication (datagram concatenation), and bit flips.
func chaosMutations(buf []byte) [][]byte {
	var muts [][]byte
	for _, cut := range []int{0, 1, len(buf) / 2, len(buf) - 1} {
		if cut >= 0 && cut <= len(buf) {
			muts = append(muts, buf[:cut])
		}
	}
	muts = append(muts, append(append([]byte(nil), buf...), buf...))
	for i := 0; i < len(buf); i += 1 + len(buf)/16 {
		m := append([]byte(nil), buf...)
		m[i] ^= 1 << uint(i%8)
		muts = append(muts, m)
	}
	return muts
}

// reencodable reports whether a decoded packet may be passed back to
// AppendPacket: the encoder panics (by contract) unless blocks arrive in
// strictly ascending column order, a property corrupted indices can break.
func reencodable(p *Packet) bool {
	if len(p.Nexts) == 0 || len(p.Nexts) > MaxCols {
		return false
	}
	prev := -1
	for _, b := range p.Blocks {
		col := int(b.Index) % len(p.Nexts)
		if col <= prev {
			return false
		}
		prev = col
	}
	return true
}

// packetsEquivalent compares two decoded packets field by field, treating
// nil and empty slices as equal (the reuse path recycles backing arrays,
// so its empty slices are non-nil).
func packetsEquivalent(a, b *Packet) bool {
	if a.Type != b.Type || a.Version != b.Version || a.DType != b.DType ||
		a.Slot != b.Slot || a.WID != b.WID || a.TensorID != b.TensorID ||
		a.BlockSize != b.BlockSize || len(a.Nexts) != len(b.Nexts) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Nexts {
		if a.Nexts[i] != b.Nexts[i] {
			return false
		}
	}
	for i := range a.Blocks {
		if a.Blocks[i].Index != b.Blocks[i].Index || len(a.Blocks[i].Data) != len(b.Blocks[i].Data) {
			return false
		}
		for j, v := range a.Blocks[i].Data {
			w := b.Blocks[i].Data[j]
			if v != w && (v == v || w == w) { // NaN payloads compare equal
				return false
			}
		}
	}
	return true
}

// checkReuseDecode verifies the recycled-state decode path against the
// fresh-allocation path: same error outcome, same decoded packet, no stale
// state leaking from whatever the recycled packet and arena held before.
func checkReuseDecode(t *testing.T, dirty *Packet, scratch []float32, buf []byte) []float32 {
	fresh, freshErr := DecodePacket(buf)
	scratch, reuseErr := DecodePacketInto(dirty, scratch, buf)
	if (freshErr == nil) != (reuseErr == nil) {
		t.Fatalf("decode paths disagree: fresh err %v, reuse err %v", freshErr, reuseErr)
	}
	if freshErr == nil && !packetsEquivalent(fresh, dirty) {
		t.Fatalf("reuse decode leaked stale state:\n fresh %+v\n reuse %+v", fresh, dirty)
	}
	return scratch
}

// checkViewDecode verifies DecodePacketView against DecodePacketInto on
// buf as given and shifted one byte into a larger slice (which forces the
// misaligned fallback): the same error, or the same packet with
// bit-identical payloads. The view packet and arena are recycled dirty
// across calls like checkReuseDecode's.
func checkViewDecode(t *testing.T, dirty *Packet, scratch []float32, buf []byte) []float32 {
	var into Packet
	_, intoErr := DecodePacketInto(&into, nil, buf)
	shifted := make([]byte, len(buf)+1)[1:]
	copy(shifted, buf)
	for _, b := range [][]byte{buf, shifted} {
		var viewErr error
		scratch, viewErr = DecodePacketView(dirty, scratch, b)
		if (intoErr == nil) != (viewErr == nil) || (intoErr != nil && intoErr.Error() != viewErr.Error()) {
			t.Fatalf("DecodePacketView err %v, DecodePacketInto err %v", viewErr, intoErr)
		}
		if intoErr != nil {
			continue
		}
		if !packetsEquivalent(&into, dirty) {
			t.Fatalf("view decode differs:\n into %+v\n view %+v", &into, dirty)
		}
		for i, blk := range into.Blocks {
			for j, v := range blk.Data {
				if math.Float32bits(v) != math.Float32bits(dirty.Blocks[i].Data[j]) {
					t.Fatalf("block %d elem %d: view bits %#08x, into bits %#08x", i, j,
						math.Float32bits(dirty.Blocks[i].Data[j]), math.Float32bits(v))
				}
			}
		}
	}
	return scratch
}

// FuzzDecodePacket exercises the dense decoder on arbitrary and mutated
// inputs: no panics ever, any buffer that decodes must survive an
// encode/decode round trip (byte-exact for float32 payloads), the
// recycled-state reuse path (DecodePacketInto over a dirty packet and
// scratch arena) must agree with the fresh path exactly, and the in-place
// DecodePacketView must agree with DecodePacketInto, aligned or not.
func FuzzDecodePacket(f *testing.F) {
	for _, seed := range seedPackets() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		// The reuse-path packet and arena are deliberately dirtied by every
		// successful decode in this run and by a seed decode up front, so a
		// decoder that fails to reset state cannot pass.
		dirty := &Packet{}
		scratch, _ := DecodePacketInto(dirty, nil, seedPackets()[0])
		viewDirty := &Packet{}
		viewScratch, _ := DecodePacketView(viewDirty, nil, seedPackets()[2])
		check := func(b []byte) {
			scratch = checkReuseDecode(t, dirty, scratch, b)
			viewScratch = checkViewDecode(t, viewDirty, viewScratch, b)
			p, err := DecodePacket(b)
			if err != nil {
				return
			}
			if !reencodable(p) {
				return
			}
			enc := AppendPacket(nil, p)
			q, err := DecodePacket(enc)
			if err != nil {
				t.Fatalf("re-decode of re-encoded packet failed: %v", err)
			}
			if p.DType == DTypeF32 {
				// Float32 payloads are bit-transparent, so encoding the
				// decoded packet must be idempotent.
				if enc2 := AppendPacket(nil, q); !bytes.Equal(enc, enc2) {
					t.Fatalf("f32 round trip not idempotent:\n  %x\n  %x", enc, enc2)
				}
			} else if len(q.Blocks) != len(p.Blocks) || q.Cols() != p.Cols() {
				// Half precision may renormalize NaN payloads; structure
				// must still survive.
				t.Fatalf("f16 round trip changed structure: %d/%d blocks, %d/%d cols",
					len(q.Blocks), len(p.Blocks), q.Cols(), p.Cols())
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}

// FuzzDecodeSparsePacket is the key-value analogue; sparse payloads are
// always float32, so the round trip must be byte-exact whenever the
// original buffer has no trailing garbage.
func FuzzDecodeSparsePacket(f *testing.F) {
	for _, seed := range seedPackets() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		check := func(b []byte) {
			p, err := DecodeSparsePacket(b)
			if err != nil {
				return
			}
			enc := AppendSparsePacket(nil, p)
			q, err := DecodeSparsePacket(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if enc2 := AppendSparsePacket(nil, q); !bytes.Equal(enc, enc2) {
				t.Fatalf("sparse round trip not idempotent:\n  %x\n  %x", enc, enc2)
			}
		}
		check(buf)
		for _, m := range chaosMutations(buf) {
			check(m)
		}
	})
}

// seedControls are valid encodings of every control-plane type, used as
// fuzz seeds and by the corpus generator.
func seedControls() [][]byte {
	ps := []*ControlPacket{
		{Type: TypeJobOpen, WID: 1, TensorID: 0x30000, Workers: 4, Tenant: "acme", Job: "bert"},
		{Type: TypeJobAccept, WID: 1, TensorID: 0x30000},
		{Type: TypeJobReject, Reason: ReasonQuota, TensorID: 0x50000, Tenant: "t"},
		{Type: TypeJobClose, WID: 2, TensorID: 0x30000, Job: "j"},
		{Type: TypeOpReject, Reason: ReasonDraining, TensorID: 0x30009},
	}
	var out [][]byte
	for _, p := range ps {
		out = append(out, AppendControl(nil, p))
	}
	return out
}

// seedViews are valid encodings of every view-plane type DecodeView
// accepts, used as fuzz seeds and by the corpus generator.
func seedViews() [][]byte {
	ps := []*ViewPacket{
		{Type: TypeView, Epoch: 2, Workers: []int32{0, 1}, Aggregators: []int32{3}},
		{Type: TypeViewAck, WID: 1, Epoch: 2},
		{Type: TypeStaleEpoch, Reason: ReasonStaleEpoch, TensorID: 77, Epoch: 3,
			Workers: []int32{0, 1, 2}, Aggregators: []int32{4, 5}},
	}
	var out [][]byte
	for _, p := range ps {
		out = append(out, AppendView(nil, p))
	}
	return out
}

// checkPlaneRoundTrip asserts the control/view-plane decoder contract on
// buf and its chaos mutations: no panic, and anything decode accepts
// re-encodes to its own prefix (the decoders ignore trailing bytes) and
// decodes back to an equal packet.
func checkPlaneRoundTrip[P any](t *testing.T, buf []byte, decode func([]byte) (P, error), encode func([]byte, P) []byte) {
	for _, b := range append([][]byte{buf}, chaosMutations(buf)...) {
		p, err := decode(b)
		if err != nil {
			continue
		}
		enc := encode(nil, p)
		if !bytes.Equal(enc, b[:len(enc)]) {
			t.Fatalf("re-encode differs from input prefix:\n  %x\n  %x", enc, b)
		}
		q, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the packet:\n  %+v\n  %+v", p, q)
		}
	}
}

// FuzzDecodeControl fuzzes the control-plane decoder (job open/accept/
// reject/close, op reject) with checkPlaneRoundTrip.
func FuzzDecodeControl(f *testing.F) {
	for _, seed := range seedControls() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkPlaneRoundTrip(t, buf, DecodeControl, AppendControl)
	})
}

// FuzzDecodeView fuzzes the view-plane decoder (view, view ack, stale
// epoch) with checkPlaneRoundTrip.
func FuzzDecodeView(f *testing.F) {
	for _, seed := range seedViews() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		checkPlaneRoundTrip(t, buf, DecodeView, AppendView)
	})
}

// Huge declared lengths must fail cleanly rather than allocating wildly:
// a corrupted block-length field is bounded by the buffer check.
func TestDecodePacketHugeDeclaredLength(t *testing.T) {
	p := &Packet{Type: TypeData, BlockSize: 4, Nexts: []uint32{0},
		Blocks: []Block{{Index: 0, Data: []float32{1}}}}
	buf := AppendPacket(nil, p)
	// Block length field sits after nexts: header(24) + 4 + index(4).
	off := 24 + 4 + 4
	buf[off] = 0xFF
	buf[off+1] = 0xFF
	buf[off+2] = 0xFF
	buf[off+3] = 0x7F
	if _, err := DecodePacket(buf); err == nil {
		t.Fatal("accepted packet with 2^31 declared block length")
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in regression corpus under
// testdata/fuzz from each target's seeds and their chaos mutations. Run with
// WIRE_CORPUS_GEN=1 after changing the wire format; normally it only
// verifies every corpus entry still parses without panicking.
func TestRegenerateFuzzCorpus(t *testing.T) {
	seeds := map[string]func() [][]byte{
		"FuzzDecodePacket":       seedPackets,
		"FuzzDecodeSparsePacket": seedPackets,
		"FuzzDecodeControl":      seedControls,
		"FuzzDecodeView":         seedViews,
	}
	if os.Getenv("WIRE_CORPUS_GEN") != "" {
		for target, seedFn := range seeds {
			dir := "testdata/fuzz/" + target
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			i := 0
			emit := func(buf []byte) {
				body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(buf)) + ")\n"
				name := fmt.Sprintf("%s/seed-%03d", dir, i)
				i++
				if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for _, seed := range seedFn() {
				emit(seed)
				for _, m := range chaosMutations(seed) {
					emit(m)
				}
			}
		}
		return
	}
	for target := range seeds {
		dir := "testdata/fuzz/" + target
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("regression corpus missing (regenerate with WIRE_CORPUS_GEN=1): %v", err)
		}
		if len(entries) == 0 {
			t.Fatalf("empty corpus in %s", dir)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(dir + "/" + e.Name())
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitN(raw, []byte("\n"), 3)
			if len(lines) < 2 || string(lines[0]) != "go test fuzz v1" {
				t.Fatalf("%s/%s: not a go fuzz corpus file", dir, e.Name())
			}
			body := string(lines[1])
			if len(body) < len("[]byte(\"\")") || body[:7] != "[]byte(" {
				t.Fatalf("%s/%s: unexpected corpus entry %q", dir, e.Name(), body)
			}
			s, err := strconv.Unquote(body[7 : len(body)-1])
			if err != nil {
				t.Fatalf("%s/%s: %v", dir, e.Name(), err)
			}
			_, _ = DecodePacket([]byte(s))
			_, _ = DecodeSparsePacket([]byte(s))
			_, _ = DecodeControl([]byte(s))
			_, _ = DecodeView([]byte(s))
		}
	}
}
