package secagg

import (
	"encoding/binary"
	"fmt"
	"math"

	"csfltr/internal/wire"
)

// Wire shapes. Both messages ride the shared internal/wire frame
// ([version][flags][uvarint raw length][payload]) so they flow through
// the same codec, accounting and fuzz surface as every other transport
// payload. Payload layouts:
//
//	MaskedUpdate: [tag 0x01][uvarint round][uvarint party][uvarint n]
//	              [8-byte little-endian ring element x n]
//	SeedReveal:   [tag 0x02][uvarint round][uvarint from]
//	              [uvarint dropped][32-byte seed]
//
// Ring elements are fixed-width on purpose: masked words are uniform in
// Z_{2^64}, so varints would cost more than they save and a
// length-correlated encoding would leak magnitude structure the masking
// just erased.
const (
	tagMaskedUpdate = 0x01
	tagSeedReveal   = 0x02
)

// MaskedUpdate is one party's masked quantized model delta for a round
// — the only form in which training updates ever cross the wire.
type MaskedUpdate struct {
	Round uint64
	Party uint32
	Vec   []uint64
}

// Marshal appends the framed encoding to dst.
func (u *MaskedUpdate) Marshal(dst []byte) []byte {
	payload := make([]byte, 0, 1+3+binary.MaxVarintLen64+8*len(u.Vec))
	payload = append(payload, tagMaskedUpdate)
	payload = wire.AppendUvarint(payload, u.Round)
	payload = wire.AppendUvarint(payload, uint64(u.Party))
	payload = wire.AppendUvarint(payload, uint64(len(u.Vec)))
	for _, v := range u.Vec {
		payload = binary.LittleEndian.AppendUint64(payload, v)
	}
	return wire.Pack(dst, payload)
}

// UnmarshalMaskedUpdate decodes a framed masked update.
func UnmarshalMaskedUpdate(data []byte) (*MaskedUpdate, error) {
	payload, err := wire.Unpack(data)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 || payload[0] != tagMaskedUpdate {
		return nil, fmt.Errorf("%w: not a masked update", wire.ErrMalformed)
	}
	rest := payload[1:]
	round, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	party, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	if party > math.MaxUint32 {
		return nil, fmt.Errorf("%w: party index out of range", wire.ErrMalformed)
	}
	n, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	// Bound n before multiplying so 8*n cannot wrap around uint64 and
	// before anything is allocated for it.
	if n > uint64(len(rest))/8 || uint64(len(rest)) != 8*n {
		return nil, fmt.Errorf("%w: vector length mismatch", wire.ErrMalformed)
	}
	vec := make([]uint64, n)
	for i := range vec {
		vec[i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	return &MaskedUpdate{Round: round, Party: uint32(party), Vec: vec}, nil
}

// SeedReveal is a survivor's disclosure of the per-round pairwise seed
// it shares with a dropped party, enabling the server to cancel the
// dropped party's residual masks. Only the already-burned round seed
// travels — never a long-lived DH secret.
type SeedReveal struct {
	Round   uint64
	From    uint32
	Dropped uint32
	Seed    Seed
}

// Marshal appends the framed encoding to dst.
func (r *SeedReveal) Marshal(dst []byte) []byte {
	payload := make([]byte, 0, 1+3*binary.MaxVarintLen64+len(r.Seed))
	payload = append(payload, tagSeedReveal)
	payload = wire.AppendUvarint(payload, r.Round)
	payload = wire.AppendUvarint(payload, uint64(r.From))
	payload = wire.AppendUvarint(payload, uint64(r.Dropped))
	payload = append(payload, r.Seed[:]...)
	return wire.Pack(dst, payload)
}

// UnmarshalSeedReveal decodes a framed seed reveal.
func UnmarshalSeedReveal(data []byte) (*SeedReveal, error) {
	payload, err := wire.Unpack(data)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 || payload[0] != tagSeedReveal {
		return nil, fmt.Errorf("%w: not a seed reveal", wire.ErrMalformed)
	}
	rest := payload[1:]
	round, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	from, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	dropped, rest, err := wire.Uvarint(rest)
	if err != nil {
		return nil, err
	}
	if from > math.MaxUint32 || dropped > math.MaxUint32 {
		return nil, fmt.Errorf("%w: party index out of range", wire.ErrMalformed)
	}
	out := &SeedReveal{Round: round, From: uint32(from), Dropped: uint32(dropped)}
	if len(rest) != len(out.Seed) {
		return nil, fmt.Errorf("%w: seed length mismatch", wire.ErrMalformed)
	}
	copy(out.Seed[:], rest)
	return out, nil
}
