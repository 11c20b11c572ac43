// Package rng provides a small, fast, deterministic pseudo-random number
// generator for simulations.
//
// The generator is xoshiro256** seeded through SplitMix64. Compared with
// math/rand it offers two properties the experiment harness needs:
//
//   - Labelled stream derivation: Derive hashes a textual label into a new,
//     statistically independent stream, so every (experiment, n, trial)
//     triple gets its own reproducible generator regardless of the order in
//     which trials are scheduled across worker goroutines.
//   - Value semantics suitable for embedding: a Source is a plain struct
//     with no locks; each goroutine owns its own.
package rng

import (
	"math"
	"math/bits"
	"strconv"
)

// Source is a xoshiro256** pseudo-random number generator.
// The zero value is not a valid generator; use New or Derive.
type Source struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.
// Distinct seeds give statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed reinitializes the generator from a 64-bit seed.
func (r *Source) Seed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// A theoretically possible all-zero state would lock the generator at 0.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a new independent Source identified by label.
// The same receiver state and label always produce the same stream, and the
// receiver itself is not advanced, so derivation order is irrelevant.
func (r *Source) Derive(label string) *Source {
	return New(r.ChildSeed(label))
}

// DeriveIndexed returns Derive(prefix + strconv.Itoa(i)) without building
// the label string. Per-entity streams ("station-0", "station-1", ...) are
// derived once per simulation but across every cell of a sweep, so the
// Sprintf labels used to dominate the harness's allocation profile. The
// hash input is byte-identical to the concatenated label, so existing
// goldens and transported ChildSeed values are unaffected.
func (r *Source) DeriveIndexed(prefix string, i int) *Source {
	h := r.stateHash()
	h = fnvString(h, prefix)
	var buf [20]byte
	h = fnvBytes(h, strconv.AppendInt(buf[:0], int64(i), 10))
	return New(h)
}

// ChildSeed returns the seed Derive(label) would construct its stream from:
// a hash of the receiver's current state and the label. It lets callers that
// schedule work elsewhere (e.g. a sweep grid) transport the derived stream
// as a plain seed and rebuild it later with New.
func (r *Source) ChildSeed(label string) uint64 {
	return fnvString(r.stateHash(), label)
}

// DeriveSeed returns a 64-bit seed derived from seed and label, for callers
// that want to construct generators lazily.
func DeriveSeed(seed uint64, label string) uint64 {
	return fnvString(fnvUint64(fnvOffset, seed), label)
}

// FNV-64a, inlined: hash/fnv's hasher is an allocation per derivation, and
// derivations happen per station per cell. The constants and byte order
// match hash/fnv exactly, so seeds hash identically to the old code.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// stateHash returns the FNV-64a hash of the receiver's four state words in
// little-endian byte order (the prefix ChildSeed feeds before the label).
func (r *Source) stateHash() uint64 {
	h := fnvOffset
	for _, s := range r.s {
		h = fnvUint64(h, s)
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
