package codec

// Column-segment array codecs. The tiered column store keeps each sealed
// 1024-row segment's encoding in memory as its cold tier; these encoders
// produce losslessly round-tripping, self-describing blobs for each
// array shape a segment holds: int64 values, float64 values and uint32
// dictionary codes. Integers and codes pick the smallest of a raw,
// run-length, or (ints only) bit-packed layout — appended metadata is
// often constant or slowly varying per block, where RLE and narrow
// packing win 10-100x — while floats stay raw so every bit pattern (NaN
// payloads, -0.0) survives byte-exactly. Decode(Encode(x)) is x for
// every input; nothing here is lossy.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Array layout tags (first byte of every encoded array).
const (
	segRaw    = 0x00 // fixed-width little-endian values
	segRLE    = 0x01 // (run length, value) pairs, varint-coded
	segPacked = 0x02 // ints: min value + fixed bit width deltas
)

// maxSegElems bounds decoded allocation: segments are 1024 rows, so any
// count beyond this is corruption, not data.
const maxSegElems = 1 << 20

func segHeader(tag byte, n int) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64)
	buf = append(buf, tag)
	return binary.AppendUvarint(buf, uint64(n))
}

func segCount(b []byte) (tag byte, n int, rest []byte, err error) {
	if len(b) < 2 {
		return 0, 0, nil, fmt.Errorf("%w: short segment array", ErrCorrupt)
	}
	tag = b[0]
	c, sz := binary.Uvarint(b[1:])
	if sz <= 0 || c > maxSegElems {
		return 0, 0, nil, fmt.Errorf("%w: bad segment count", ErrCorrupt)
	}
	return tag, int(c), b[1+sz:], nil
}

// EncodeInts encodes an int64 array, choosing the smallest of the raw,
// run-length and bit-packed layouts.
func EncodeInts(v []int64) []byte {
	raw := segHeader(segRaw, len(v))
	for _, x := range v {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(x))
	}
	best := raw
	if rle := encodeIntsRLE(v); len(rle) < len(best) {
		best = rle
	}
	if packed := encodeIntsPacked(v); packed != nil && len(packed) < len(best) {
		best = packed
	}
	return best
}

func encodeIntsRLE(v []int64) []byte {
	out := segHeader(segRLE, len(v))
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = binary.AppendVarint(out, v[i])
		i = j
	}
	return out
}

// encodeIntsPacked stores min + fixed-width deltas (LSB-first bit
// packing). Returns nil when packing cannot beat raw (width 64 or empty).
func encodeIntsPacked(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	minV := v[0]
	for _, x := range v {
		if x < minV {
			minV = x
		}
	}
	var maxDelta uint64
	for _, x := range v {
		if d := uint64(x) - uint64(minV); d > maxDelta {
			maxDelta = d
		}
	}
	// Widths past 56 bits could overflow the 64-bit packing accumulator
	// (pending bits + width > 64) and save almost nothing over raw.
	width := bits.Len64(maxDelta)
	if width > 56 {
		return nil
	}
	out := segHeader(segPacked, len(v))
	out = binary.LittleEndian.AppendUint64(out, uint64(minV))
	out = append(out, byte(width))
	out = appendPackedBits(out, v, minV, width)
	return out
}

func appendPackedBits(out []byte, v []int64, minV int64, width int) []byte {
	var acc uint64
	nbits := 0
	for _, x := range v {
		d := uint64(x) - uint64(minV)
		acc |= d << nbits
		nbits += width
		for nbits >= 8 {
			out = append(out, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc))
	}
	return out
}

// sized returns dst resliced to n elements when it has the capacity, a
// fresh array otherwise. Every decoder below overwrites all n elements.
func sized[T any](dst []T, n int) []T {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]T, n)
}

// DecodeInts decodes an EncodeInts blob into a fresh array.
func DecodeInts(b []byte) ([]int64, error) { return DecodeIntsInto(nil, b) }

// DecodeIntsInto is DecodeInts reusing dst's backing array when it is
// large enough, so a caller that keeps one buffer across segments
// decodes without allocating. The result has exactly the decoded
// length; dst's previous contents are overwritten.
func DecodeIntsInto(dst []int64, b []byte) ([]int64, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	out := sized(dst, n)
	switch tag {
	case segRaw:
		if len(rest) != n*8 {
			return nil, fmt.Errorf("%w: raw int payload", ErrCorrupt)
		}
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(rest[i*8:]))
		}
	case segRLE:
		i := 0
		for i < n {
			run, sz := binary.Uvarint(rest)
			if sz <= 0 || run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("%w: int run", ErrCorrupt)
			}
			rest = rest[sz:]
			val, sz := binary.Varint(rest)
			if sz <= 0 {
				return nil, fmt.Errorf("%w: int run value", ErrCorrupt)
			}
			rest = rest[sz:]
			for k := 0; k < int(run); k++ {
				out[i] = val
				i++
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing int runs", ErrCorrupt)
		}
	case segPacked:
		if len(rest) < 9 {
			return nil, fmt.Errorf("%w: packed int header", ErrCorrupt)
		}
		minV := int64(binary.LittleEndian.Uint64(rest))
		width := int(rest[8])
		rest = rest[9:]
		if width > 56 || len(rest) != (n*width+7)/8 {
			return nil, fmt.Errorf("%w: packed int payload", ErrCorrupt)
		}
		var acc uint64
		nbits := 0
		pos := 0
		mask := uint64(1)<<width - 1
		if width == 0 {
			mask = 0
		}
		for i := range out {
			for nbits < width {
				acc |= uint64(rest[pos]) << nbits
				pos++
				nbits += 8
			}
			out[i] = int64(uint64(minV) + (acc & mask))
			acc >>= width
			nbits -= width
		}
	default:
		return nil, fmt.Errorf("%w: int layout tag %d", ErrCorrupt, tag)
	}
	return out, nil
}

// EncodeFloats encodes a float64 array as raw little-endian bit patterns
// — bit-exact for every value, including NaN payloads and signed zeros.
func EncodeFloats(v []float64) []byte {
	out := segHeader(segRaw, len(v))
	for _, x := range v {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

// DecodeFloats decodes an EncodeFloats blob into a fresh array.
func DecodeFloats(b []byte) ([]float64, error) { return DecodeFloatsInto(nil, b) }

// DecodeFloatsInto is DecodeFloats reusing dst (see DecodeIntsInto).
func DecodeFloatsInto(dst []float64, b []byte) ([]float64, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	if tag != segRaw || len(rest) != n*8 {
		return nil, fmt.Errorf("%w: float payload", ErrCorrupt)
	}
	out := sized(dst, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
	}
	return out, nil
}

// EncodeCodes encodes a uint32 dictionary-code array, choosing the
// smaller of the raw and run-length layouts.
func EncodeCodes(v []uint32) []byte {
	raw := segHeader(segRaw, len(v))
	for _, x := range v {
		raw = binary.LittleEndian.AppendUint32(raw, x)
	}
	rle := segHeader(segRLE, len(v))
	for i := 0; i < len(v); {
		j := i
		for j < len(v) && v[j] == v[i] {
			j++
		}
		rle = binary.AppendUvarint(rle, uint64(j-i))
		rle = binary.AppendUvarint(rle, uint64(v[i]))
		i = j
	}
	if len(rle) < len(raw) {
		return rle
	}
	return raw
}

// DecodeCodes decodes an EncodeCodes blob into a fresh array.
func DecodeCodes(b []byte) ([]uint32, error) { return DecodeCodesInto(nil, b) }

// DecodeCodesInto is DecodeCodes reusing dst (see DecodeIntsInto).
func DecodeCodesInto(dst []uint32, b []byte) ([]uint32, error) {
	tag, n, rest, err := segCount(b)
	if err != nil {
		return nil, err
	}
	out := sized(dst, n)
	switch tag {
	case segRaw:
		if len(rest) != n*4 {
			return nil, fmt.Errorf("%w: raw code payload", ErrCorrupt)
		}
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(rest[i*4:])
		}
	case segRLE:
		i := 0
		for i < n {
			run, sz := binary.Uvarint(rest)
			if sz <= 0 || run == 0 || run > uint64(n-i) {
				return nil, fmt.Errorf("%w: code run", ErrCorrupt)
			}
			rest = rest[sz:]
			val, sz := binary.Uvarint(rest)
			if sz <= 0 || val > math.MaxUint32 {
				return nil, fmt.Errorf("%w: code run value", ErrCorrupt)
			}
			rest = rest[sz:]
			for k := 0; k < int(run); k++ {
				out[i] = uint32(val)
				i++
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: trailing code runs", ErrCorrupt)
		}
	default:
		return nil, fmt.Errorf("%w: code layout tag %d", ErrCorrupt, tag)
	}
	return out, nil
}
