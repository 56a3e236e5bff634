// Package secagg implements masked secure aggregation for federated
// LTR training rounds (Bonawitz-style pairwise additive masking,
// specialised to the cross-silo setting of DHSA / Heikkilä et al.).
//
// The protocol, per training round:
//
//  1. Every pair of parties (i, j) already shares a 32-byte DH secret
//     from internal/keyex. Both derive the same per-round pairwise seed
//     with RoundSeed (domain-separated SHA-256 of the shared secret and
//     the round number) and expand it into a mask vector with an
//     AES-256-CTR keystream.
//  2. Each party quantizes its local model delta onto a fixed-point
//     grid and lifts it into the modular ring Z_{2^64} (uint64
//     wraparound arithmetic), then adds the pairwise mask streams with
//     antisymmetric signs: party i adds the (i,j) stream when i < j and
//     subtracts it when i > j. Summed over all parties the streams
//     cancel term by term, bit-exactly, so the server recovers exactly
//     the sum of the quantized updates while each individual submission
//     is keystream-uniform noise.
//  3. N-of-N fast path: if every active party submits, the Aggregator
//     just sums the vectors. t-of-N dropout recovery: when a party
//     drops mid-round, each surviving submitter reveals the per-round
//     pairwise seed it shares with the dropped party; the Aggregator
//     re-expands those streams and removes the dropped party's residual
//     masks from the sum. Only the already-burned round seeds travel —
//     never the long-lived DH secrets — so past and future rounds stay
//     protected.
//
// The ring is Z_{2^64} rather than a prime field so that "exact
// cancellation" is native machine arithmetic: quantized updates are
// two's-complement int64 values reinterpreted as uint64, masks are
// uniform uint64 words, and the server-side sum is plain wraparound
// addition. Quantization (Config.Scale, Config.Clip) bounds the
// per-weight dequantization error by 0.5/Scale per party.
package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Errors returned by this package.
var (
	ErrConfig     = errors.New("secagg: invalid config")
	ErrDimension  = errors.New("secagg: vector dimension mismatch")
	ErrParty      = errors.New("secagg: party index out of range")
	ErrInactive   = errors.New("secagg: party not active this round")
	ErrDuplicate  = errors.New("secagg: duplicate submission")
	ErrIncomplete = errors.New("secagg: round incomplete")
	ErrNoReveal   = errors.New("secagg: missing seed reveal for recovery")
)

// roundSeedLabel domain-separates round-seed derivation from every
// other use of the pairwise DH secrets (e.g. keyex.Seal boxes).
const roundSeedLabel = "csfltr/secagg/round-seed/v1"

// RawUpdate is a plaintext local model update (weights then bias). It
// is the taint source of the secure-aggregation privacy boundary: a
// RawUpdate must never reach a wire struct or log — only its masked
// form (Masker.Mask) may leave the party.
//
//csfltr:private
type RawUpdate []float64

// Config fixes the fixed-point grid shared by every party in a round.
// All parties must use identical values or the server-side sum is
// meaningless.
type Config struct {
	// Scale is the fixed-point multiplier: a weight w is quantized to
	// round(w*Scale). Larger scales mean finer grids; the per-party
	// round-trip error is bounded by 0.5/Scale per weight.
	Scale float64
	// Clip bounds |w| before quantization so a single party cannot
	// overflow the ring even with adversarial weights. With P parties
	// the aggregate magnitude is bounded by P*Clip*Scale, which must
	// stay well inside int64.
	Clip float64
}

// DefaultConfig returns the grid used by the federation layer: 2^-24
// resolution with weights clipped to ±65536. At that geometry even
// 2^13 parties stay 10 bits clear of int64 overflow.
func DefaultConfig() Config {
	return Config{Scale: 1 << 24, Clip: 1 << 16}
}

// Validate rejects grids that are degenerate or can overflow the ring.
func (c Config) Validate() error {
	if !(c.Scale > 0) || math.IsInf(c.Scale, 0) {
		return fmt.Errorf("%w: scale %v", ErrConfig, c.Scale)
	}
	if !(c.Clip > 0) || math.IsInf(c.Clip, 0) {
		return fmt.Errorf("%w: clip %v", ErrConfig, c.Clip)
	}
	if c.Clip*c.Scale >= math.MaxInt64/4 {
		return fmt.Errorf("%w: clip*scale %v too close to ring size", ErrConfig, c.Clip*c.Scale)
	}
	return nil
}

// ErrorBound returns the worst-case per-weight dequantization error of
// an aggregate over parties submissions (each contributes at most half
// a grid step).
func (c Config) ErrorBound(parties int) float64 {
	if parties < 1 {
		parties = 1
	}
	return 0.5 / c.Scale // after dividing the summed error by parties
}

// Quantize lifts a plaintext update onto the fixed-point grid inside
// the ring: each weight is clipped to ±Clip, scaled, rounded to the
// nearest integer and reinterpreted as a two's-complement ring element.
// The result is still sensitive (it is a deterministic function of the
// raw gradient) — only masking sanitizes it for the wire.
func Quantize(u RawUpdate, cfg Config) []uint64 {
	out := make([]uint64, len(u))
	for i, v := range u {
		if v > cfg.Clip {
			v = cfg.Clip
		} else if v < -cfg.Clip {
			v = -cfg.Clip
		} else if math.IsNaN(v) {
			v = 0
		}
		out[i] = uint64(int64(math.Round(v * cfg.Scale)))
	}
	return out
}

// Dequantize maps an aggregated ring vector back to float64 averages
// over parties submissions: two's-complement reinterpretation, then
// descale and divide.
func Dequantize(sum []uint64, cfg Config, parties int) []float64 {
	if parties < 1 {
		parties = 1
	}
	out := make([]float64, len(sum))
	d := cfg.Scale * float64(parties)
	for i, v := range sum {
		out[i] = float64(int64(v)) / d
	}
	return out
}

// Seed is a 32-byte per-round pairwise mask seed. Revealing one burns
// exactly one (pair, round) mask stream and nothing else.
type Seed [32]byte

// RoundSeed derives the pairwise mask seed for a round from a shared
// DH secret: SHA-256(label || 0 || secret || round). Both endpoints of
// a pair derive the identical seed without communicating.
func RoundSeed(shared []byte, round uint64) Seed {
	h := sha256.New()
	h.Write([]byte(roundSeedLabel))
	h.Write([]byte{0})
	h.Write(shared)
	var rb [8]byte
	binary.BigEndian.PutUint64(rb[:], round)
	h.Write(rb[:])
	var s Seed
	h.Sum(s[:0])
	return s
}

// maskStream expands a round seed into dim uniform ring elements with
// an AES-256-CTR keystream (zero IV — each seed is used for exactly one
// stream, so the counter never repeats under a key).
func maskStream(seed Seed, dim int) []uint64 {
	block, err := aes.NewCipher(seed[:])
	if err != nil {
		panic("secagg: aes.NewCipher with 32-byte key: " + err.Error()) // unreachable
	}
	var iv [aes.BlockSize]byte
	stream := cipher.NewCTR(block, iv[:])
	buf := make([]byte, 8*dim)
	stream.XORKeyStream(buf, buf)
	out := make([]uint64, dim)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return out
}

// Masker holds one party's view of the pairwise secrets and produces
// its masked submissions.
type Masker struct {
	index  int
	shared [][]byte // shared[j] = DH secret with party j; nil at index
}

// NewMasker builds the masker for party index given its row of the
// pairwise secret matrix (shared[j] is the secret with party j; the
// own-index entry is ignored).
func NewMasker(index int, shared [][]byte) (*Masker, error) {
	if index < 0 || index >= len(shared) {
		return nil, fmt.Errorf("%w: index %d of %d", ErrParty, index, len(shared))
	}
	row := make([][]byte, len(shared))
	for j, s := range shared {
		if j == index {
			continue
		}
		if len(s) == 0 {
			return nil, fmt.Errorf("%w: missing shared secret with party %d", ErrConfig, j)
		}
		row[j] = append([]byte(nil), s...)
	}
	return &Masker{index: index, shared: row}, nil
}

// Mask adds this round's pairwise mask streams to a quantized update
// and returns the server-safe vector. active[j] marks the parties
// expected to submit this round; masks are only exchanged among them.
// Signs are antisymmetric — party i adds the (i,j) stream when i < j
// and subtracts it when j < i — so the streams vanish from the sum over
// all active submitters. Masking is the sanitization step of the
// secure-aggregation privacy boundary: the output is keystream-uniform
// and carries no recoverable information about the input without the
// complement masks.
//
//csfltr:sanitizes
func (m *Masker) Mask(round uint64, q []uint64, active []bool) ([]uint64, error) {
	if len(active) != len(m.shared) {
		return nil, fmt.Errorf("%w: active %d parties, masker has %d", ErrDimension, len(active), len(m.shared))
	}
	if !active[m.index] {
		return nil, fmt.Errorf("%w: party %d", ErrInactive, m.index)
	}
	out := make([]uint64, len(q))
	copy(out, q)
	for j := range m.shared {
		if j == m.index || !active[j] {
			continue
		}
		stream := maskStream(RoundSeed(m.shared[j], round), len(q))
		if m.index < j {
			for k, s := range stream {
				out[k] += s
			}
		} else {
			for k, s := range stream {
				out[k] -= s
			}
		}
	}
	return out, nil
}

// Reveal returns the per-round pairwise seed this party shares with a
// dropped party, for dropout recovery. Only the single (pair, round)
// seed leaves the party — the long-lived DH secret stays put, so every
// other round's masks remain secure.
func (m *Masker) Reveal(round uint64, dropped int) (Seed, error) {
	if dropped < 0 || dropped >= len(m.shared) {
		return Seed{}, fmt.Errorf("%w: index %d of %d", ErrParty, dropped, len(m.shared))
	}
	if dropped == m.index {
		return Seed{}, fmt.Errorf("%w: cannot reveal own seed", ErrParty)
	}
	return RoundSeed(m.shared[dropped], round), nil
}

// Aggregator is the server side of one round: it sums masked vectors
// blind and, after dropout recovery, exposes the exact ring sum of the
// quantized updates.
type Aggregator struct {
	dim    int
	active []bool // roster expected at round start (mask structure)
	got    []bool // parties whose vectors have arrived
	sum    []uint64
}

// NewAggregator starts a round over dim-weight vectors with the given
// active roster (the same slice contents every Masker.Mask call used).
func NewAggregator(dim int, active []bool) (*Aggregator, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("%w: dim %d", ErrDimension, dim)
	}
	n := 0
	for _, a := range active {
		if a {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: no active parties", ErrConfig)
	}
	return &Aggregator{
		dim:    dim,
		active: append([]bool(nil), active...),
		got:    make([]bool, len(active)),
		sum:    make([]uint64, dim),
	}, nil
}

// Add accumulates one party's masked vector into the blind sum.
func (a *Aggregator) Add(party int, vec []uint64) error {
	if party < 0 || party >= len(a.active) {
		return fmt.Errorf("%w: index %d of %d", ErrParty, party, len(a.active))
	}
	if !a.active[party] {
		return fmt.Errorf("%w: party %d", ErrInactive, party)
	}
	if a.got[party] {
		return fmt.Errorf("%w: party %d", ErrDuplicate, party)
	}
	if len(vec) != a.dim {
		return fmt.Errorf("%w: got %d weights, want %d", ErrDimension, len(vec), a.dim)
	}
	for i, v := range vec {
		a.sum[i] += v
	}
	a.got[party] = true
	return nil
}

// Submitted reports whether a party's vector has been accumulated.
func (a *Aggregator) Submitted(party int) bool {
	return party >= 0 && party < len(a.got) && a.got[party]
}

// RemoveDropped cancels the residual mask structure of a party that was
// active (so the submitters mixed masks with it) but never submitted.
// reveals must hold, for every party that did submit, the (pair, round)
// seed it shares with the dropped party — exactly what each survivor's
// Masker.Reveal returns. The residual contribution of survivor j is
// sign(j, d) * stream(seed_jd); subtracting it for every survivor
// leaves the sum as if party d had never been in the roster.
func (a *Aggregator) RemoveDropped(dropped int, reveals map[int]Seed) error {
	if dropped < 0 || dropped >= len(a.active) {
		return fmt.Errorf("%w: index %d of %d", ErrParty, dropped, len(a.active))
	}
	if !a.active[dropped] {
		return fmt.Errorf("%w: party %d", ErrInactive, dropped)
	}
	if a.got[dropped] {
		return fmt.Errorf("%w: party %d submitted; refusing to unmask it", ErrDuplicate, dropped)
	}
	// Validate every needed reveal before touching the sum, so a failed
	// recovery leaves the aggregator intact for a retry.
	for j := range a.active {
		if a.got[j] {
			if _, ok := reveals[j]; !ok {
				return fmt.Errorf("%w: survivor %d for dropped %d", ErrNoReveal, j, dropped)
			}
		}
	}
	for j := range a.active {
		if !a.got[j] {
			continue
		}
		stream := maskStream(reveals[j], a.dim)
		if j < dropped {
			// Survivor j added the (j, d) stream; take it back out.
			for k, s := range stream {
				a.sum[k] -= s
			}
		} else {
			for k, s := range stream {
				a.sum[k] += s
			}
		}
	}
	a.active[dropped] = false
	return nil
}

// Sum returns the exact ring sum of the quantized updates and the
// number of contributing parties. It fails while any active party has
// neither submitted nor been removed — releasing a partially-masked sum
// would leak mask material.
func (a *Aggregator) Sum() ([]uint64, int, error) {
	count := 0
	for i, act := range a.active {
		if !act {
			continue
		}
		if !a.got[i] {
			return nil, 0, fmt.Errorf("%w: party %d still outstanding", ErrIncomplete, i)
		}
		count++
	}
	out := make([]uint64, a.dim)
	copy(out, a.sum)
	return out, count, nil
}
