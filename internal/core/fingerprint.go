package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// This file implements canonical plan fingerprinting: a stable identity
// for (dataset version, operator tree, parameters) that the serving
// layer's result cache keys on. The paper's systems argument is that
// materializing inference outputs and query results across callers is
// what makes visual analytics tractable at scale; a fingerprint that is
// insensitive to field ordering but sensitive to every semantic input is
// the precondition for that reuse being sound.

// Fingerprint is a canonical plan identity (hex-encoded SHA-256).
type Fingerprint string

// Fingerprinter accumulates the semantic components of a physical plan
// into a collision-resistant digest. Every token is length-prefixed and
// tagged, so no concatenation of values can alias another ("ab"+"c" vs
// "a"+"bc", a string "1" vs an int 1, a missing component vs an empty
// one).
//
// The tokens are appended to a buffer the caller may own (see
// StartFingerprint) and hashed once, by HexSum or Sum: a fingerprint
// over a reused buffer allocates nothing. A Fingerprinter is a value:
// each method returns it with its tokens added, which keeps a caller's
// stack buffer on the stack. The digest is the SHA-256 of
// the tokens' concatenation, each a tag byte, its length as a big-endian
// uint64 and its bytes.
type Fingerprinter struct {
	buf []byte
}

// StartFingerprint starts a fingerprint of the given plan kind whose
// tokens are appended to buf[:0].
func StartFingerprint(buf []byte, kind string) Fingerprinter {
	return Fingerprinter{buf: buf[:0]}.str('K', kind)
}

// NewFingerprinter starts a fingerprint of the given plan kind in a
// buffer of its own.
func NewFingerprinter(kind string) Fingerprinter { return StartFingerprint(nil, kind) }

// head appends a token's tag and length.
func (f Fingerprinter) head(tag byte, n int) Fingerprinter {
	f.buf = binary.BigEndian.AppendUint64(append(f.buf, tag), uint64(n))
	return f
}

// str appends a token holding s.
func (f Fingerprinter) str(tag byte, s string) Fingerprinter {
	f = f.head(tag, len(s))
	f.buf = append(f.buf, s...)
	return f
}

// u64 appends a token holding v's eight big-endian bytes.
func (f Fingerprinter) u64(tag byte, v uint64) Fingerprinter {
	f = f.head(tag, 8)
	f.buf = binary.BigEndian.AppendUint64(f.buf, v)
	return f
}

// Col folds in a dataset dependency: the collection's name and the
// version of its visible contents. Any write (or drop/re-create) bumps
// the version, so fingerprints over re-ingested data never alias stale
// cached results.
func (f Fingerprinter) Col(name string, version uint64) Fingerprinter {
	return f.str('C', name).U64(version)
}

// Str folds in a named string parameter.
func (f Fingerprinter) Str(key, v string) Fingerprinter {
	return f.str('k', key).str('s', v)
}

// Int folds in a named integer parameter.
func (f Fingerprinter) Int(key string, v int64) Fingerprinter {
	return f.str('k', key).u64('i', uint64(v))
}

// Float folds in a named float parameter (bit-exact).
func (f Fingerprinter) Float(key string, v float64) Fingerprinter {
	return f.str('k', key).u64('f', math.Float64bits(v))
}

// U64 folds in a raw unsigned integer (no key; for structural counts).
func (f Fingerprinter) U64(v uint64) Fingerprinter {
	return f.u64('u', v)
}

// Value folds in a named typed metadata value (filter constants).
func (f Fingerprinter) Value(key string, v Value) Fingerprinter {
	f = f.str('k', key).head('t', 1)
	f.buf = append(f.buf, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		f = f.Int("", v.Int())
	case KindFloat:
		f = f.Float("", v.Float())
	case KindStr:
		f = f.str('s', v.Str())
	case KindVec, KindRect:
		vec := v.Vec()
		f = f.U64(uint64(len(vec)))
		for _, x := range vec {
			f = f.head('v', 4)
			f.buf = binary.BigEndian.AppendUint32(f.buf, math.Float32bits(x))
		}
	}
	return f
}

// HexSum hashes the tokens so far and returns the hex digest.
func (f Fingerprinter) HexSum() [2 * sha256.Size]byte {
	sum := sha256.Sum256(f.buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return out
}

// Sum finalizes the fingerprint.
func (f Fingerprinter) Sum() Fingerprint {
	h := f.HexSum()
	return Fingerprint(h[:])
}

// Buffer returns the token buffer, for the caller to reuse once the
// fingerprint is summed.
func (f Fingerprinter) Buffer() []byte { return f.buf }
