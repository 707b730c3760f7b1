package wire

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// f32Corner returns n float32s cycling through the values a bytewise
// codec must carry untouched: NaNs with distinct payloads, signed zeros
// and infinities, subnormals, and ordinary numbers.
func f32Corner(n int) []float32 {
	bits := []uint32{
		0x7fc00000, 0x7f800001, 0xffc00123, 0x7fbfffff, // quiet and signalling NaNs
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, 0x00400000, // subnormals
		0x3f800000, 0xc2f6e979, 0x7f7fffff, // 1, -123.456, max finite
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(bits[i%len(bits)] ^ uint32(i/len(bits))<<3)
	}
	return out
}

// TestF32CodecMatchesPortableLoop checks the host's float32 codec against
// the byte-order-independent loop: identical encoded bytes, and identical
// bit patterns decoded back, including NaN payloads and subnormals.
func TestF32CodecMatchesPortableLoop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 257} {
		src := f32Corner(n)
		got := make([]byte, 4*n)
		want := make([]byte, 4*n)
		putF32Slice(got, src)
		putF32Loop(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: putF32Slice bytes differ from the portable loop", n)
		}
		dec := make([]float32, n)
		ref := make([]float32, n)
		getF32Slice(dec, got)
		getF32Loop(ref, want)
		for i := range src {
			s := math.Float32bits(src[i])
			if d, r := math.Float32bits(dec[i]), math.Float32bits(ref[i]); d != s || r != s {
				t.Fatalf("n=%d elem %d: sent %#08x, getF32Slice %#08x, loop %#08x", n, i, s, d, r)
			}
		}
	}
}

// sharesMemory reports whether f lies inside b's backing array.
func sharesMemory(f []float32, b []byte) bool {
	if len(f) == 0 || cap(b) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&f[0]))
	lo := uintptr(unsafe.Pointer(&b[:1][0]))
	return p >= lo && p < lo+uintptr(cap(b))
}

// TestDecodePacketViewAliasing pins which payloads DecodePacketView reads
// in place: float32 blocks of a 4-byte-aligned buffer alias it, while
// half-precision blocks and any block of a misaligned buffer are decoded
// into the arena. Either way the values match DecodePacketInto.
func TestDecodePacketViewAliasing(t *testing.T) {
	pkt := benchPacket()
	half := benchPacket()
	half.DType = DTypeF16
	aligned := func(enc []byte) []byte {
		b := make([]byte, len(enc)) // heap allocations of this size are 8-byte aligned
		copy(b, enc)
		return b
	}
	misaligned := func(enc []byte) []byte {
		b := make([]byte, len(enc)+1)[1:]
		copy(b, enc)
		return b
	}
	cases := []struct {
		name  string
		buf   []byte
		alias bool
	}{
		{"f32-aligned", aligned(AppendPacket(nil, pkt)), littleEndian},
		{"f32-misaligned", misaligned(AppendPacket(nil, pkt)), false},
		{"f16-aligned", aligned(AppendPacket(nil, half)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var view, into Packet
			if _, err := DecodePacketView(&view, nil, tc.buf); err != nil {
				t.Fatal(err)
			}
			if _, err := DecodePacketInto(&into, nil, tc.buf); err != nil {
				t.Fatal(err)
			}
			if !packetsEquivalent(&view, &into) {
				t.Fatalf("view decode differs from DecodePacketInto")
			}
			for i, b := range view.Blocks {
				if got := sharesMemory(b.Data, tc.buf); got != tc.alias {
					t.Fatalf("block %d aliases buf = %v, want %v", i, got, tc.alias)
				}
				if cap(b.Data) != len(b.Data) {
					t.Fatalf("block %d: cap %d > len %d lets an append overwrite its neighbour", i, cap(b.Data), len(b.Data))
				}
				if sharesMemory(into.Blocks[i].Data, tc.buf) {
					t.Fatalf("DecodePacketInto block %d aliases buf", i)
				}
			}
		})
	}
}
