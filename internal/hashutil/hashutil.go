// Package hashutil provides the pairwise-independent hash families used by
// every sketch in the CS-F-LTR system.
//
// A Family bundles z row hashes h_a : T -> [0, w) together with z sign
// hashes g_a : T -> {-1, +1}, exactly the (H, G) pair required by Count
// Sketch and by the RTK-Sketch built on top of it. Two constructions are
// offered:
//
//   - KindPolynomial: h(x) = ((a*x + b) mod p) mod w over the Mersenne
//     prime p = 2^61 - 1. This is the classical pairwise-independent
//     family and is the default for benchmarks.
//   - KindMD5: keyed MD5, matching the hash the paper reports using. The
//     key never leaves the federation, so the coordinating server cannot
//     evaluate the hashes (Section IV-B, Step 1 of the paper).
//
// All functions are deterministic given (kind, seed, z, w): every party in
// a federation that derives the same seed (see package keyex) evaluates
// identical hash families, which is what lets one party query another
// party's sketches.
package hashutil

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Kind selects a hash-family construction.
type Kind int

const (
	// KindPolynomial selects pairwise-independent polynomial hashing over
	// the Mersenne prime 2^61-1. Fast; used by default.
	KindPolynomial Kind = iota
	// KindMD5 selects keyed MD5 hashing, the construction named by the
	// paper. Slower but key-hiding.
	KindMD5
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindPolynomial:
		return "polynomial"
	case KindMD5:
		return "md5"
	default:
		return fmt.Sprintf("hashutil.Kind(%d)", int(k))
	}
}

// mersenne61 is the Mersenne prime 2^61 - 1 used as the field modulus for
// the polynomial family.
const mersenne61 = (1 << 61) - 1

// Errors returned by NewFamily.
var (
	ErrBadRows  = errors.New("hashutil: number of rows z must be in [1, 1<<20]")
	ErrBadWidth = errors.New("hashutil: width w must be in [2, 1<<30]")
	ErrBadKind  = errors.New("hashutil: unknown hash kind")
)

// Upper bounds on family geometry; parameters beyond these are always a
// configuration error (or hostile serialized input) and would make the
// coefficient allocation explode.
const (
	MaxRows  = 1 << 20
	MaxWidth = 1 << 30
)

// rowParams holds the per-row coefficients of one polynomial hash pair.
type rowParams struct {
	a, b uint64 // index hash: ((a*x + b) mod p) mod w
	c, d uint64 // sign hash:  ((c*x + d) mod p) mod 2 -> {-1,+1}
}

// Family is a fixed set of z pairwise-independent (index, sign) hash pairs
// with index range [0, w). A Family is immutable after construction and is
// safe for concurrent use.
type Family struct {
	kind Kind
	z    int
	w    uint32
	// seed is the shared federation hash seed: the server must never
	// learn it (PAPER.md §IV-B Step 1), so a Family must not be
	// marshalled, logged, or embedded in a wire message.
	//
	//csfltr:private
	seed uint64
	//csfltr:private
	rows []rowParams // polynomial coefficients (also salts MD5 rows)
	//csfltr:private
	key [16]byte // MD5 key material derived from seed
}

// NewFamily constructs a hash family of kind k with z rows and index range
// [0, w), deterministically derived from seed.
func NewFamily(k Kind, z, w int, seed uint64) (*Family, error) {
	if z <= 0 || z > MaxRows {
		return nil, fmt.Errorf("%w (got %d)", ErrBadRows, z)
	}
	if w < 2 || w > MaxWidth {
		return nil, fmt.Errorf("%w (got %d)", ErrBadWidth, w)
	}
	if k != KindPolynomial && k != KindMD5 {
		return nil, fmt.Errorf("%w: %d", ErrBadKind, int(k))
	}
	f := &Family{kind: k, z: z, w: uint32(w), seed: seed}
	sm := NewSplitMix64(seed)
	f.rows = make([]rowParams, z)
	for i := range f.rows {
		f.rows[i] = rowParams{
			a: 1 + sm.Next()%(mersenne61-1), // a in [1, p)
			b: sm.Next() % mersenne61,       // b in [0, p)
			c: 1 + sm.Next()%(mersenne61-1),
			d: sm.Next() % mersenne61,
		}
	}
	binary.LittleEndian.PutUint64(f.key[:8], sm.Next())
	binary.LittleEndian.PutUint64(f.key[8:], sm.Next())
	return f, nil
}

// MustNewFamily is NewFamily that panics on error; for use with constant
// parameters known to be valid.
func MustNewFamily(k Kind, z, w int, seed uint64) *Family {
	f, err := NewFamily(k, z, w, seed)
	if err != nil {
		panic(err)
	}
	return f
}

// Kind reports the construction used by the family.
func (f *Family) Kind() Kind { return f.kind }

// Z returns the number of hash rows.
func (f *Family) Z() int { return f.z }

// W returns the index range: Index always falls in [0, W).
func (f *Family) W() int { return int(f.w) }

// Seed returns the seed the family was derived from.
func (f *Family) Seed() uint64 { return f.seed }

// mulMod61 computes (x*y) mod (2^61-1) without overflow.
func mulMod61(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	// Split the 128-bit product into 61-bit limbs and fold: since
	// 2^61 ≡ 1 (mod p), each limb folds down by addition.
	r := lo&mersenne61 + (lo>>61 | hi<<3)
	if r >= mersenne61 {
		r -= mersenne61
	}
	// hi can be up to 2^64; the fold above used hi<<3 which may itself
	// exceed p; one extra reduction keeps the result canonical.
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// affineMod61 computes ((a*x + b) mod p) for the Mersenne prime p.
func affineMod61(a, x, b uint64) uint64 {
	r := mulMod61(a, x%mersenne61) + b
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}

// Index evaluates h_row(term) in [0, W).
func (f *Family) Index(row int, term uint64) uint32 {
	p := &f.rows[row]
	switch f.kind {
	case KindMD5:
		return uint32(f.md5Hash(row, term, 0) % uint64(f.w))
	default:
		return uint32(affineMod61(p.a, term, p.b) % uint64(f.w))
	}
}

// IndexSign evaluates h_row(term) and g_row(term) together: Index and
// Sign of one row, at the cost of one call.
func (f *Family) IndexSign(row int, term uint64) (uint32, int32) {
	p := &f.rows[row]
	var h, g uint64
	if f.kind == KindMD5 {
		h, g = f.md5Hash(row, term, 0), f.md5Hash(row, term, 1)
	} else {
		x := term % mersenne61
		h, g = affineMod61(p.a, x, p.b), affineMod61(p.c, x, p.d)
	}
	return uint32(h % uint64(f.w)), int32(g&1)<<1 - 1
}

// Sign evaluates g_row(term) in {-1, +1}.
func (f *Family) Sign(row int, term uint64) int32 {
	p := &f.rows[row]
	var bit uint64
	switch f.kind {
	case KindMD5:
		bit = f.md5Hash(row, term, 1) & 1
	default:
		bit = affineMod61(p.c, term, p.d) & 1
	}
	if bit == 0 {
		return -1
	}
	return 1
}

// md5Hash computes the keyed MD5 hash of (row, term, purpose) reduced to a
// uint64. purpose separates the index-hash and sign-hash domains.
func (f *Family) md5Hash(row int, term uint64, purpose byte) uint64 {
	var buf [16 + 8 + 8 + 1]byte
	copy(buf[:16], f.key[:])
	binary.LittleEndian.PutUint64(buf[16:], uint64(row))
	binary.LittleEndian.PutUint64(buf[24:], term)
	buf[32] = purpose
	sum := md5.Sum(buf[:])
	return binary.LittleEndian.Uint64(sum[:8])
}

// SplitMix64 is a tiny, fast, well-distributed PRNG used for deterministic
// seed expansion (Steele et al.). It is NOT a cryptographic generator; it
// only expands already-secret seed material into hash coefficients.
type SplitMix64 struct{ state uint64 }

// NewSplitMix64 returns a generator seeded with s.
func NewSplitMix64(s uint64) *SplitMix64 { return &SplitMix64{state: s} }

// Next returns the next 64-bit value of the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives a labelled 64-bit seed from shared
// secret material. Parties that agree on a secret (via Diffie-Hellman, see
// package keyex) call DeriveSeed(secret, "sketch-hash") etc. to obtain the
// seeds for each hash family in the protocol, keeping them hidden from the
// coordinating server.
func DeriveSeed(secret []byte, label string) uint64 {
	h := md5.New()
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write(secret)
	sum := h.Sum(nil)
	return binary.LittleEndian.Uint64(sum[:8])
}
