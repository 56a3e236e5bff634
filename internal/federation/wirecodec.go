package federation

import (
	"fmt"
	"math"

	"csfltr/internal/wire"
)

// This file builds the federation-level codecs on internal/wire: the
// HTTP wire bodies (http.go) and the SearchResult codec. Only released,
// non-private material is ever encoded — obfuscated column vectors,
// perturbed values, document ids and outcome metadata — the same
// surface the JSON encoding already exposed; raw terms and hash keys
// never reach a codec (enforced by the privacyboundary analyzer's
// wire-struct sinks).

// WireContentType is the HTTP media type of wire-framed bodies. A
// client that sends it as Accept gets wire responses; one that sends a
// wire request body labels it with this Content-Type.
const WireContentType = "application/x-csfltr-wire"

// appendString appends a length-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendCols appends a column vector (count + uvarint indexes).
func appendCols(dst []byte, cols []uint32) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = wire.AppendUvarint(dst, uint64(c))
	}
	return dst
}

// decodeCols consumes a column vector.
func decodeCols(data []byte) ([]uint32, []byte, error) {
	n, rest, err := wire.Uvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: column count exceeds input", wire.ErrMalformed)
	}
	cols := make([]uint32, n)
	for i := range cols {
		v, r, err := wire.Uvarint(rest)
		if err != nil {
			return nil, nil, err
		}
		if v > math.MaxUint32 {
			return nil, nil, fmt.Errorf("%w: column index out of range", wire.ErrMalformed)
		}
		cols[i], rest = uint32(v), r
	}
	return cols, rest, nil
}

// encodeWireTFRequest frames the HTTP /tf request body: the document id
// and the obfuscated column vector.
func encodeWireTFRequest(docID int, cols []uint32) []byte {
	payload := wire.AppendVarint(nil, int64(docID))
	payload = appendCols(payload, cols)
	return wire.Pack(nil, payload)
}

// decodeWireTFRequest unframes an HTTP /tf request body.
func decodeWireTFRequest(data []byte) (int, []uint32, error) {
	payload, err := wire.Unpack(data)
	if err != nil {
		return 0, nil, err
	}
	id, rest, err := wire.Varint(payload)
	if err != nil {
		return 0, nil, err
	}
	cols, rest, err := decodeCols(rest)
	if err != nil {
		return 0, nil, err
	}
	if len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: trailing bytes", wire.ErrMalformed)
	}
	return int(id), cols, nil
}

// AppendSearchResult appends the framed encoding of a federated search
// result: the merged ranking, the communication cost and the per-party
// availability report — everything a coordinator releases to a client.
func AppendSearchResult(dst []byte, r *SearchResult) []byte {
	payload := wire.AppendUvarint(nil, uint64(len(r.Hits)))
	for _, h := range r.Hits {
		payload = appendString(payload, h.Party)
		payload = wire.AppendVarint(payload, int64(h.DocID))
		payload = appendFloat(payload, h.Score)
	}
	payload = wire.AppendVarint(payload, int64(r.Cost.Messages))
	payload = wire.AppendVarint(payload, r.Cost.BytesSent)
	payload = wire.AppendVarint(payload, r.Cost.BytesReceived)
	payload = wire.AppendVarint(payload, int64(r.Cost.SketchLookups))
	flag := byte(0)
	if r.Partial {
		flag = 1
	}
	payload = append(payload, flag)
	payload = wire.AppendUvarint(payload, uint64(len(r.Parties)))
	for _, p := range r.Parties {
		payload = appendString(payload, p.Party)
		payload = appendString(payload, p.Outcome)
		payload = appendString(payload, p.Err)
		payload = wire.AppendVarint(payload, int64(p.Queries))
		payload = wire.AppendVarint(payload, int64(p.Retries))
		payload = wire.AppendVarint(payload, int64(p.Cached))
		payload = wire.AppendVarint(payload, int64(p.StaleFor))
	}
	return wire.Pack(dst, payload)
}

// sizeSearchRelease charges one released SearchResult under the active
// codec: the in-memory estimate the cache already uses for "raw", the
// framed binary encoding for "wire".
func sizeSearchRelease(codec string, res *SearchResult) int64 {
	if codec != codecWire {
		return searchResultSize(res)
	}
	return int64(len(AppendSearchResult(nil, res)))
}

// appendFloat appends a float64 as its little-endian bit pattern
// (scores are post-estimation aggregates; exactness matters more than
// another byte or two of compression).
func appendFloat(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	return append(dst,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}
