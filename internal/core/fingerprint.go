package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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
type Fingerprinter struct {
	h hash.Hash
}

// NewFingerprinter starts a fingerprint of the given plan kind.
func NewFingerprinter(kind string) *Fingerprinter {
	f := &Fingerprinter{h: sha256.New()}
	f.token('K', []byte(kind))
	return f
}

func (f *Fingerprinter) token(tag byte, b []byte) {
	var hdr [9]byte
	hdr[0] = tag
	binary.BigEndian.PutUint64(hdr[1:], uint64(len(b)))
	f.h.Write(hdr[:])
	f.h.Write(b)
}

// Col folds in a dataset dependency: the collection's name and the
// version of its visible contents. Any write (or drop/re-create) bumps
// the version, so fingerprints over re-ingested data never alias stale
// cached results.
func (f *Fingerprinter) Col(name string, version uint64) *Fingerprinter {
	f.token('C', []byte(name))
	f.U64(version)
	return f
}

// Str folds in a named string parameter.
func (f *Fingerprinter) Str(key, v string) *Fingerprinter {
	f.token('k', []byte(key))
	f.token('s', []byte(v))
	return f
}

// Int folds in a named integer parameter.
func (f *Fingerprinter) Int(key string, v int64) *Fingerprinter {
	f.token('k', []byte(key))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	f.token('i', b[:])
	return f
}

// Float folds in a named float parameter (bit-exact).
func (f *Fingerprinter) Float(key string, v float64) *Fingerprinter {
	f.token('k', []byte(key))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	f.token('f', b[:])
	return f
}

// U64 folds in a raw unsigned integer (no key; for structural counts).
func (f *Fingerprinter) U64(v uint64) *Fingerprinter {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.token('u', b[:])
	return f
}

// Value folds in a named typed metadata value (filter constants).
func (f *Fingerprinter) Value(key string, v Value) *Fingerprinter {
	f.token('k', []byte(key))
	f.token('t', []byte{byte(v.Kind)})
	switch v.Kind {
	case KindInt:
		f.Int("", v.Int())
	case KindFloat:
		f.Float("", v.Float())
	case KindStr:
		f.token('s', []byte(v.Str()))
	case KindVec, KindRect:
		vec := v.Vec()
		f.U64(uint64(len(vec)))
		for _, x := range vec {
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], math.Float32bits(x))
			f.token('v', b[:])
		}
	}
	return f
}

// Sum finalizes the fingerprint. The Fingerprinter must not be reused.
func (f *Fingerprinter) Sum() Fingerprint {
	return Fingerprint(hex.EncodeToString(f.h.Sum(nil)))
}
