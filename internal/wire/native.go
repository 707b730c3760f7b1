package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Float32 payload codec. The wire carries float32 payloads as
// little-endian IEEE 754 bits, which on a little-endian host is exactly
// how a []float32 sits in memory: encoding is then one copy of the
// slice's bytes, and decoding can even skip the copy and read the floats
// in place (aliasF32). Big-endian hosts keep the per-element loop. This
// file holds every unsafe conversion in the package.

// littleEndian reports whether the host's byte order is the wire's.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f32Bytes views the memory of f as bytes (4 per element).
func f32Bytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// putF32Slice writes src as little-endian float32 bits into dst, which
// must hold at least 4*len(src) bytes.
func putF32Slice(dst []byte, src []float32) {
	if littleEndian {
		copy(dst[:4*len(src)], f32Bytes(src))
		return
	}
	putF32Loop(dst, src)
}

// getF32Slice fills dst from little-endian float32 bits in src, which
// must hold at least 4*len(dst) bytes.
func getF32Slice(dst []float32, src []byte) {
	if littleEndian {
		copy(f32Bytes(dst), src[:4*len(dst)])
		return
	}
	getF32Loop(dst, src)
}

// putF32Loop is the byte-order-independent form of putF32Slice.
func putF32Loop(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getF32Loop is the byte-order-independent form of getF32Slice.
func getF32Loop(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// canAliasF32 reports whether float32 payloads inside buf can be read in
// place: the host is little-endian and buf starts 4-byte aligned. Every
// payload offset in a dense packet is a multiple of 4, so buf's own
// alignment decides for all of its blocks.
func canAliasF32(buf []byte) bool {
	return littleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(buf)))%4 == 0
}

// aliasF32 reinterprets b, which canAliasF32 has approved and whose
// length is a non-zero multiple of 4, as float32s sharing its memory.
// The result's capacity equals its length, so an append can never write
// into b.
func aliasF32(b []byte) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}
