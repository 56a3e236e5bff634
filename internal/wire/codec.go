package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"csfltr/internal/core"
	"csfltr/internal/varint"
)

// Payload layouts (inside the Pack frame, version 1):
//
//	TFQuery:     uvarint n, then n uvarint column indexes.
//	TFResponse:  uvarint n, then a value vector.
//	RTKResponse: uvarint ncells, then per cell: uvarint n, the document
//	             ids as one zig-zag varint start followed by n-1 zig-zag
//	             varint deltas, then a value vector.
//
// A value vector is one flags byte followed by the values: with the
// integral bit set, n zig-zag varints (the quantized-count form — exact
// whenever every value is a whole number, which is always the case at
// Epsilon = 0); otherwise n raw little-endian float64 bit patterns, so
// noisy values round-trip losslessly too. The id delta coding is
// order-preserving, so it loses nothing on ids in any order — which is
// why this layout remains the encoding of the RTK replies version 2
// (core.RTKResponse.AppendPayload, the layout every canonical reply
// takes) cannot represent, and of batch top-K releases, whose ids are
// ordered by count.

// valueFlagIntegral marks a value vector encoded as zig-zag varints.
const valueFlagIntegral = 1 << 0

// appendValues appends the value-vector encoding of vals.
func appendValues(dst []byte, vals []float64) []byte {
	if integral(vals) {
		dst = append(dst, valueFlagIntegral)
		for _, v := range vals {
			dst = AppendVarint(dst, int64(v))
		}
		return dst
	}
	dst = append(dst, 0)
	for _, v := range vals {
		bits := math.Float64bits(v)
		dst = append(dst,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return dst
}

// decodeValues consumes a value vector of len(dst) values into dst.
func decodeValues(dst []float64, data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("%w: missing value flags", ErrMalformed)
	}
	flags := data[0]
	data = data[1:]
	if flags&^byte(valueFlagIntegral) != 0 {
		return nil, fmt.Errorf("%w: unknown value flags %#x", ErrMalformed, flags)
	}
	if flags&valueFlagIntegral != 0 {
		for i := range dst {
			v, rest, err := Varint(data)
			if err != nil {
				return nil, err
			}
			dst[i], data = float64(v), rest
		}
		return data, nil
	}
	if len(data) < 8*len(dst) {
		return nil, fmt.Errorf("%w: truncated float values", ErrMalformed)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return data[8*len(dst):], nil
}

// integral reports whether every value is a whole number representable
// as an int64 (the exactness condition for the varint form).
func integral(vals []float64) bool {
	for _, v := range vals {
		if !integralValue(v) {
			return false
		}
	}
	return true
}

// integralValue reports whether int64(v) carries v exactly. Negative
// zero does not: int64 cannot carry its sign bit back.
func integralValue(v float64) bool {
	return v == math.Trunc(v) && v >= math.MinInt64 && v < math.MaxInt64 &&
		!(v == 0 && math.Signbit(v))
}

// valuesSize returns the encoded size of a value vector.
func valuesSize(vals []float64) int {
	n := 1
	if integral(vals) {
		for _, v := range vals {
			n += varint.ZigZagLen(int64(v))
		}
		return n
	}
	return n + 8*len(vals)
}

// AppendTFQueries appends the request body of a reverse top-K batch:
// the queries' framed encodings back to back. A query is far below
// CompressThreshold, so its frame is stored and is written straight into
// dst; a longer one goes through Pack. Only the last frame may be
// compressed (see NextFrame).
func AppendTFQueries(dst []byte, qs []*core.TFQuery) []byte {
	for i, q := range qs {
		dst = appendTFQuery(dst, q, i == len(qs)-1)
	}
	return dst
}

func appendTFQuery(dst []byte, q *core.TFQuery, last bool) []byte {
	n := tfQueryLen(q)
	if n >= CompressThreshold && last {
		return Pack(dst, appendTFQueryPayload(make([]byte, 0, n), q))
	}
	return appendTFQueryPayload(appendHeader(dst, Version, 0, n), q)
}

func appendTFQueryPayload(dst []byte, q *core.TFQuery) []byte {
	dst = AppendUvarint(dst, uint64(len(q.Cols)))
	for _, c := range q.Cols {
		dst = AppendUvarint(dst, uint64(c))
	}
	return dst
}

// tfQueryLen returns the unframed payload size of a column query.
func tfQueryLen(q *core.TFQuery) int {
	n := varint.Len(uint64(len(q.Cols)))
	for _, c := range q.Cols {
		n += varint.Len(uint64(c))
	}
	return n
}

// SizeTFQuery returns the framed (uncompressed) encoded size.
func SizeTFQuery(q *core.TFQuery) int64 { return PackedSize(tfQueryLen(q)) }

// DecodeTFQueries decodes the request body of a reverse top-K batch:
// between one and limit column-query frames back to back, nothing after
// the last.
func DecodeTFQueries(data []byte, limit int) ([]*core.TFQuery, error) {
	var qs []*core.TFQuery
	for len(qs) == 0 || len(data) > 0 {
		if len(qs) == limit {
			return nil, fmt.Errorf("%w: more than %d frames", ErrMalformed, limit)
		}
		frame, rest, err := NextFrame(data)
		if err != nil {
			return nil, err
		}
		q, err := DecodeTFQuery(frame)
		if err != nil {
			return nil, err
		}
		qs, data = append(qs, q), rest
	}
	return qs, nil
}

// DecodeTFQuery decodes a framed column query.
func DecodeTFQuery(data []byte) (*core.TFQuery, error) {
	payload, err := Unpack(data)
	if err != nil {
		return nil, err
	}
	n, rest, err := Uvarint(payload)
	if err != nil {
		return nil, err
	}
	if err := checkCount(n, rest); err != nil {
		return nil, err
	}
	cols := make([]uint32, n)
	for i := range cols {
		v, r, err := Uvarint(rest)
		if err != nil {
			return nil, err
		}
		if v > math.MaxUint32 {
			return nil, fmt.Errorf("%w: column index out of range", ErrMalformed)
		}
		cols[i], rest = uint32(v), r
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes", ErrMalformed)
	}
	return &core.TFQuery{Cols: cols}, nil
}

// AppendTFResponse appends the framed encoding of a TF reply, straight
// into dst when it is short enough to be stored (as AppendTFQueries).
func AppendTFResponse(dst []byte, r *core.TFResponse) []byte {
	n := tfResponseLen(r)
	if n >= CompressThreshold {
		return Pack(dst, appendTFResponsePayload(make([]byte, 0, n), r))
	}
	return appendTFResponsePayload(appendHeader(dst, Version, 0, n), r)
}

func appendTFResponsePayload(dst []byte, r *core.TFResponse) []byte {
	return appendValues(AppendUvarint(dst, uint64(len(r.Values))), r.Values)
}

// tfResponseLen returns the unframed payload size of a TF reply.
func tfResponseLen(r *core.TFResponse) int {
	return varint.Len(uint64(len(r.Values))) + valuesSize(r.Values)
}

// SizeTFResponse returns the framed (uncompressed) encoded size.
func SizeTFResponse(r *core.TFResponse) int64 { return PackedSize(tfResponseLen(r)) }

// DecodeTFResponse decodes a framed TF reply into one from
// core.NewTFResponse, which the caller holds (and may Release).
func DecodeTFResponse(data []byte) (*core.TFResponse, error) {
	payload, err := Unpack(data)
	if err != nil {
		return nil, err
	}
	n, rest, err := Uvarint(payload)
	if err != nil {
		return nil, err
	}
	if err := checkCount(n, rest); err != nil {
		return nil, err
	}
	resp := core.NewTFResponse(int(n))
	if rest, err = decodeValues(resp.Values, rest); err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: trailing bytes", ErrMalformed)
	}
	if err != nil {
		resp.Release()
		return nil, err
	}
	return resp, nil
}

// appendIDs appends n document ids as a zig-zag varint start plus
// deltas.
func appendIDs(dst []byte, ids []int32) []byte {
	prev := int64(0)
	for i, id := range ids {
		if i == 0 {
			dst = AppendVarint(dst, int64(id))
		} else {
			dst = AppendVarint(dst, int64(id)-prev)
		}
		prev = int64(id)
	}
	return dst
}

// idsSize returns the encoded size of a document id run.
func idsSize(ids []int32) int {
	n, prev := 0, int64(0)
	for i, id := range ids {
		if i == 0 {
			n += varint.ZigZagLen(int64(id))
		} else {
			n += varint.ZigZagLen(int64(id) - prev)
		}
		prev = int64(id)
	}
	return n
}

// decodeIDs consumes len(dst) delta-coded document ids into dst.
func decodeIDs(dst []int32, data []byte) ([]byte, error) {
	prev := int64(0)
	for i := range dst {
		d, rest, err := Varint(data)
		if err != nil {
			return nil, err
		}
		v := prev
		if i == 0 {
			v = d
		} else {
			v += d
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return nil, fmt.Errorf("%w: document id out of range", ErrMalformed)
		}
		dst[i], prev, data = int32(v), v, rest
	}
	return data, nil
}

// AppendRTKResponse appends the framed encoding of an RTK reply — the
// protocol's dominant payload (z cells of up to alpha*K entries each):
// a stored VersionRTK frame around the payload the reply itself lays
// out, or, for a reply that layout cannot represent, the varint payload
// above in a Version frame. Either payload is built once, in the pooled
// packer's scratch.
func AppendRTKResponse(dst []byte, r *core.RTKResponse) []byte {
	return appendRTKResponse(dst, r, true)
}

// AppendRTKResponses appends the reply body of a reverse top-K batch:
// the replies' frames back to back, in query order, for one reply
// exactly AppendRTKResponse. Only the last frame may be compressed (see
// NextFrame).
func AppendRTKResponses(dst []byte, rs []*core.RTKResponse) []byte {
	for i, r := range rs {
		dst = appendRTKResponse(dst, r, i == len(rs)-1)
	}
	return dst
}

func appendRTKResponse(dst []byte, r *core.RTKResponse, last bool) []byte {
	p := packers.Get().(*packer)
	defer putPacker(p)
	if payload, ok := r.AppendPayload(p.payload[:0]); ok {
		p.payload = payload
		return appendStored(dst, VersionRTK, payload)
	}
	p.payload = appendRTKPayloadV1(p.payload[:0], r)
	if !last {
		return appendStored(dst, Version, p.payload)
	}
	return p.pack(dst, p.payload)
}

// appendRTKPayloadV1 appends an RTK reply's version 1 payload.
func appendRTKPayloadV1(dst []byte, r *core.RTKResponse) []byte {
	dst = AppendUvarint(dst, uint64(len(r.Cells)))
	for i := range r.Cells {
		c := &r.Cells[i]
		dst = AppendUvarint(dst, uint64(len(c.IDs)))
		dst = appendIDs(dst, c.IDs)
		dst = appendValues(dst, c.Values)
	}
	return dst
}

// sizeRTKPayloadV1 returns the unframed size of an RTK reply's version
// 1 payload.
func sizeRTKPayloadV1(r *core.RTKResponse) int {
	n := varint.Len(uint64(len(r.Cells)))
	for i := range r.Cells {
		c := &r.Cells[i]
		n += varint.Len(uint64(len(c.IDs))) + idsSize(c.IDs) + valuesSize(c.Values)
	}
	return n
}

// SizeRTKResponse returns the size of the frame AppendRTKResponse
// produces — the number the transport byte accounting records per
// relayed reply. For a reply that carries its length (every reply an
// owner, the shard merge or a decoder produced) this is a field read;
// another is measured. The size of a Version frame is that of its
// uncompressed form.
func SizeRTKResponse(r *core.RTKResponse) int64 {
	if n, ok := r.PayloadLen(); ok {
		return PackedSize(n)
	}
	return PackedSize(sizeRTKPayloadV1(r))
}

// DecodeRTKResponses decodes the reply body of a reverse top-K batch
// into out: exactly len(out) RTK reply frames back to back. Each reply
// is the caller's as DecodeRTKResponse's is; on error none is left held.
func DecodeRTKResponses(data []byte, out []*core.RTKResponse) error {
	for i := range out {
		frame, rest, err := NextFrame(data)
		if err == nil {
			out[i], err = DecodeRTKResponse(frame)
		}
		if err == nil && i == len(out)-1 && len(rest) != 0 {
			err = fmt.Errorf("%w: bytes after the last of %d frames", ErrMalformed, len(out))
		}
		if err != nil {
			for j := range out[:i+1] {
				out[j].Release()
				out[j] = nil
			}
			return err
		}
		data = rest
	}
	return nil
}

// DecodeRTKResponse decodes a framed RTK reply of either version. A
// malformed input returns ErrMalformed; element counts are validated
// against the bytes actually present, or against the decoder's own
// caps, before any allocation sized by them. The reply is the caller's,
// to keep or to Release (see core.RTKResponse), and refers to nothing in
// data: a compressed frame is inflated into pooled scratch that nothing
// returned refers to.
func DecodeRTKResponse(data []byte) (*core.RTKResponse, error) {
	if len(data) > 0 && data[0] == VersionRTK {
		body, _, _, err := splitFrame(data, VersionRTK)
		if err != nil {
			return nil, err
		}
		r, err := core.DecodeRTKPayload(body)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrMalformed, err)
		}
		return r, nil
	}
	body, rawLen, compressed, err := splitFrame(data, Version)
	if err != nil {
		return nil, err
	}
	if !compressed {
		return decodeRTKPayload(body)
	}
	f := inflaters.Get().(*inflater)
	defer putInflater(f)
	if cap(f.scratch) < rawLen {
		f.scratch = make([]byte, rawLen)
	}
	payload := f.scratch[:rawLen]
	if err := f.inflate(payload, body); err != nil {
		return nil, err
	}
	return decodeRTKPayload(payload)
}

// decodeRTKPayload decodes a version 1 RTK payload into one id slab and
// one value slab sub-sliced per cell, as core's owners build theirs.
func decodeRTKPayload(payload []byte) (*core.RTKResponse, error) {
	ncells, rest, err := Uvarint(payload)
	if err != nil {
		return nil, err
	}
	if err := checkCount(ncells, rest); err != nil {
		return nil, err
	}
	total, err := countRTKEntries(rest, ncells)
	if err != nil {
		return nil, err
	}
	out, ids, vals := core.NewRTKResponse(int(ncells), total)
	if err := decodeRTKCells(out.Cells, ids, vals, rest); err != nil {
		out.Release() // half filled, and no one else's
		return nil, err
	}
	return out, nil
}

// decodeRTKCells fills cells from their version 1 encoding, carving
// every row from the two slabs, which hold what countRTKEntries counted.
func decodeRTKCells(cells []core.RTKCell, ids []int32, vals []float64, rest []byte) error {
	for i := range cells {
		n, r2, err := Uvarint(rest)
		if err != nil {
			return err
		}
		if n > uint64(len(ids)) {
			return fmt.Errorf("%w: cell length changed between passes", ErrMalformed)
		}
		c := &cells[i]
		c.IDs, ids = ids[:n:n], ids[n:]
		c.Values, vals = vals[:n:n], vals[n:]
		if r2, err = decodeIDs(c.IDs, r2); err != nil {
			return err
		}
		if rest, err = decodeValues(c.Values, r2); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: trailing bytes", ErrMalformed)
	}
	return nil
}

// countRTKEntries walks the ncells cells encoded in data and returns
// their total entry count, so the slabs can be sized before anything is
// decoded. Every entry costs at least two bytes of input, which bounds
// the total by len(data).
func countRTKEntries(data []byte, ncells uint64) (int, error) {
	total := 0
	for ; ncells > 0; ncells-- {
		n, rest, err := Uvarint(data)
		if err != nil {
			return 0, err
		}
		if err := checkCount(n, rest); err != nil {
			return 0, err
		}
		if rest, err = skipVarints(rest, int(n)); err != nil {
			return 0, err
		}
		if len(rest) < 1 {
			return 0, fmt.Errorf("%w: missing value flags", ErrMalformed)
		}
		if rest[0]&valueFlagIntegral != 0 {
			if rest, err = skipVarints(rest[1:], int(n)); err != nil {
				return 0, err
			}
		} else {
			if uint64(len(rest)-1) < 8*n {
				return 0, fmt.Errorf("%w: truncated float values", ErrMalformed)
			}
			rest = rest[1+8*n:]
		}
		total += int(n)
		data = rest
	}
	return total, nil
}

// skipVarints steps over n varints without decoding them.
func skipVarints(data []byte, n int) ([]byte, error) {
	for i, b := range data {
		if n == 0 {
			return data[i:], nil
		}
		if b < 0x80 {
			n--
		}
	}
	if n != 0 {
		return nil, fmt.Errorf("%w: truncated varints", ErrMalformed)
	}
	return nil, nil
}

// AppendModel appends the framed encoding of a linear ranking model: a
// uvarint weight count followed by one value vector holding the weights
// and then the bias. This is the hop payload of round-robin training
// relays, so BytesRelayed reflects real encoded bytes rather than a
// fixed per-weight estimate.
func AppendModel(dst []byte, w []float64, b float64) []byte {
	vals := make([]float64, 0, len(w)+1)
	vals = append(vals, w...)
	vals = append(vals, b)
	payload := make([]byte, 0, 2+valuesSize(vals))
	payload = AppendUvarint(payload, uint64(len(w)))
	payload = appendValues(payload, vals)
	return Pack(dst, payload)
}
