package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"csfltr/internal/varint"
)

// This file is the one definition of the version 2 payload of an RTK
// reply: its layout, its size arithmetic, its encoder and its decoder.
// internal/wire puts the payload in a frame; nothing else knows the
// layout.
//
//	uvarint ncells
//	uvarint ndict, then ndict float64 bit patterns, little-endian,
//	        strictly ascending as unsigned integers
//	per cell:
//	    uvarint n
//	    when n > 0:
//	        zig-zag varint first document id
//	        one byte wid, the bit width of the id deltas (0..32)
//	        n-1 values (delta - 1), wid bits each, packed LSB-first and
//	            zero-padded to a byte
//	        n dictionary indexes, bits.Len(ndict-1) bits each, packed
//	            the same way
//
// A reply is z cells of up to alpha*K entries whose values are small
// integer counts plus one shared noise draw, so a few hundred distinct
// float64 values cover thousands of entries: the dictionary holds each
// once, bit-exact, and an entry costs an index. The dictionary holds
// released values only — a count with the reply's noise already added —
// never the counts and the draw apart, which would hand the querier the
// noise Algorithm 5 adds.
//
// Every field has an arithmetic size:
//
//	len = ulen(ncells) + ulen(ndict) + 8*ndict
//	    + sum over cells of ulen(n)
//	    + sum over non-empty cells of
//	          vlen(first) + 1 + ceil((n-1)*wid/8) + ceil(n*wval/8)
//
// with wid = bits.Len(OR of the cell's delta-1) and wval =
// bits.Len(ndict-1). The producers (Owner.AnswerRTK, MergeRTKResponses)
// gather the OR per cell and the set of distinct counts in the loop that
// fills the reply and record the length in it (rtkSizer); a decoded
// reply records the length of the payload it came from; for any other
// reply PayloadLen measures. The encoding is canonical — minimal
// varints, minimal widths, zero padding, no unused dictionary entry —
// and the decoder rejects anything else, so decoding a payload and
// encoding the result gives back the same bytes.
//
// What version 2 cannot represent stays on version 1 (internal/wire):
// a cell whose ids do not strictly ascend or whose id and value counts
// differ, more than rtkMaxDict distinct values, more than
// rtkMaxEntries entries.
const (
	// rtkMaxDict caps the dictionary. A reply with more distinct values
	// is mostly dictionary and gains little from the indexes.
	rtkDictBits = 12
	rtkMaxDict  = 1 << rtkDictBits
	// rtkMaxEntries caps the entries of one reply. Entries of a cell of
	// consecutive ids and equal values take no payload bytes at all, so
	// the decoder cannot bound its allocation by the input length as the
	// version 1 decoder does; it bounds it by this instead (768 kB of
	// slabs). The largest reply of the paper's sweeps, z = 30 cells of
	// alpha*K = 1 500, is 45 000 entries; the benchmark's is 7 500.
	rtkMaxEntries = 1 << 16
)

// packedLen is the byte length of n values of w bits each.
func packedLen(n, w int) int { return (n*w + 7) / 8 }

func valueWidth(ndict int) int {
	if ndict == 0 {
		return 0
	}
	return bits.Len(uint(ndict - 1))
}

// deltaOR returns the OR of every (id - previous id - 1) of a cell: its
// bit length is the width the deltas pack at. An id that does not
// ascend makes its term negative, which sets the high half of the OR,
// so one test per cell (or>>32 != 0) finds ids out of order.
func deltaOR(ids []int32) uint64 {
	or := uint64(0)
	for len(ids) >= 5 { // four deltas a round: producers run this over every reply
		a, b, c, d, e := int64(ids[0]), int64(ids[1]), int64(ids[2]), int64(ids[3]), int64(ids[4])
		or |= uint64(b-a-1) | uint64(c-b-1) | uint64(d-c-1) | uint64(e-d-1)
		ids = ids[4:]
	}
	for k := 1; k < len(ids); k++ {
		or |= uint64(int64(ids[k]) - int64(ids[k-1]) - 1)
	}
	return or
}

// rtkCellLen is the size of a cell of n entries but for its dictionary
// indexes; or is the cell's deltaOR.
func rtkCellLen(n int, first int32, or uint64) int {
	if n == 0 {
		return 1
	}
	return varint.Len(uint64(n)) + varint.ZigZagLen(int64(first)) + 1 + packedLen(n-1, bits.Len64(or))
}

// rtkPayloadLen completes the size formula: cellsLen is the sum of
// rtkCellLen over cells, ndict the number of distinct values in them.
func rtkPayloadLen(cells []RTKCell, ndict, cellsLen int) int {
	size := varint.Len(uint64(len(cells))) + varint.Len(uint64(ndict)) + 8*ndict + cellsLen
	wval := valueWidth(ndict)
	for i := range cells {
		size += packedLen(len(cells[i].IDs), wval)
	}
	return size
}

// PayloadLen returns the length of the reply's version 2 payload, or
// false when version 2 cannot represent the reply. It is a field read
// for a reply an owner or the shard merge produced or a decoder
// returned; any other reply is measured, at about the cost of encoding
// it. Either way a reply must not be modified once it has been sized.
func (r *RTKResponse) PayloadLen() (int, bool) {
	if r.payloadLen != 0 {
		return r.payloadLen, true
	}
	e := rtkEncoders.Get().(*rtkEncoder)
	n, ok := e.measure(r)
	rtkEncoders.Put(e)
	return n, ok
}

// AppendPayload appends the reply's version 2 payload to dst, or
// returns dst and false when version 2 cannot represent the reply.
func (r *RTKResponse) AppendPayload(dst []byte) ([]byte, bool) {
	e := rtkEncoders.Get().(*rtkEncoder)
	defer rtkEncoders.Put(e)
	size, ok := e.measure(r)
	if !ok {
		return dst, false
	}
	// Dictionary order: sort the distinct values, then turn every
	// entry's first-seen index into its sorted position.
	e.sorted = append(e.sorted[:0], e.dict...)
	slices.Sort(e.sorted)
	e.rank = e.rank[:0]
	for _, b := range e.dict {
		at, _ := slices.BinarySearch(e.sorted, b)
		e.rank = append(e.rank, uint32(at))
	}
	for i, ref := range e.refs {
		e.refs[i] = e.rank[ref]
	}

	dst = slices.Grow(dst, size)
	dst = binary.AppendUvarint(dst, uint64(len(r.Cells)))
	dst = binary.AppendUvarint(dst, uint64(len(e.sorted)))
	for _, b := range e.sorted {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	wval := uint(valueWidth(len(e.sorted)))
	deltas, refs := e.deltas, e.refs
	for i := range r.Cells {
		n := len(r.Cells[i].IDs)
		dst = binary.AppendUvarint(dst, uint64(n))
		if n == 0 {
			continue
		}
		dst = binary.AppendVarint(dst, int64(r.Cells[i].IDs[0]))
		dst = append(dst, e.widths[i])
		dst = appendPacked(dst, deltas[1:n], uint(e.widths[i]))
		dst = appendPacked(dst, refs[:n], wval)
		deltas, refs = deltas[n:], refs[n:]
	}
	return dst, true
}

// rtkEncoder is the pooled working memory of one measure or encode: the
// table that finds the distinct values, and per entry what the packing
// loops write.
type rtkEncoder struct {
	slots  [2 * rtkMaxDict]uint16 // open addressing on the value bits, at most half full: 1 + index into dict, 0 empty
	dict   []uint64               // distinct value bits, in first-seen order
	sorted []uint64               // dict, ascending
	rank   []uint32               // dict index -> index into sorted
	refs   []uint32               // per entry: its value's dict index, then its rank
	deltas []uint32               // per entry: id - previous id - 1 (0 for a cell's first)
	widths []uint8                // per cell: bit width of its deltas
}

var rtkEncoders = sync.Pool{New: func() any { return new(rtkEncoder) }}

// measure fills the encoder from r and returns the payload length.
func (e *rtkEncoder) measure(r *RTKResponse) (int, bool) {
	total := 0
	for i := range r.Cells {
		if len(r.Cells[i].IDs) != len(r.Cells[i].Values) {
			return 0, false
		}
		total += len(r.Cells[i].IDs)
	}
	if total > rtkMaxEntries {
		return 0, false
	}
	clear(e.slots[:])
	e.dict, e.widths = e.dict[:0], e.widths[:0]
	e.refs, e.deltas = slices.Grow(e.refs[:0], total)[:total], slices.Grow(e.deltas[:0], total)[:total]
	refs, deltas, cellsLen := e.refs, e.deltas, 0
	for i := range r.Cells {
		c := &r.Cells[i]
		n := len(c.IDs)
		if n == 0 {
			e.widths = append(e.widths, 0)
			cellsLen += rtkCellLen(0, 0, 0)
			continue
		}
		or := deltaOR(c.IDs)
		if or>>32 != 0 {
			return 0, false
		}
		deltas[0] = 0
		for k := 1; k < n; k++ {
			deltas[k] = uint32(c.IDs[k] - c.IDs[k-1] - 1)
		}
		e.widths = append(e.widths, uint8(bits.Len64(or)))
		cellsLen += rtkCellLen(n, c.IDs[0], or)
		for k, v := range c.Values {
			ref, ok := e.intern(math.Float64bits(v))
			if !ok {
				return 0, false
			}
			refs[k] = ref
		}
		refs, deltas = refs[n:], deltas[n:]
	}
	return rtkPayloadLen(r.Cells, len(e.dict), cellsLen), true
}

// intern returns the index in dict of a value's bits, adding them if
// they are new; false once the dictionary is full.
func (e *rtkEncoder) intern(b uint64) (uint32, bool) {
	const mask = uint64(len(e.slots) - 1)
	for h := b * 0x9E3779B97F4A7C15 >> (64 - rtkDictBits - 1); ; h = (h + 1) & mask {
		switch s := e.slots[h]; {
		case s == 0:
			if len(e.dict) == rtkMaxDict {
				return 0, false
			}
			e.dict = append(e.dict, b)
			e.slots[h] = uint16(len(e.dict))
			return uint32(len(e.dict) - 1), true
		case e.dict[s-1] == b:
			return uint32(s - 1), true
		}
	}
}

// appendPacked appends vals, w bits each (w <= 32, every value below
// 1<<w), LSB-first, the last byte zero-padded.
func appendPacked(dst []byte, vals []uint32, w uint) []byte {
	if w == 0 {
		return dst
	}
	acc, n := uint64(0), uint(0)
	for _, v := range vals {
		acc |= uint64(v) << n
		if n += w; n >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// bitReader unpacks what appendPacked wrote.
type bitReader struct {
	data []byte
	acc  uint64
	n    uint
}

// read fills dst with the next len(dst) values of w bits and returns
// their OR. The caller has checked that data holds that many bits.
func (b *bitReader) read(dst []uint32, w uint) uint32 {
	if w == 0 {
		clear(dst)
		return 0
	}
	data, acc, n := b.data, b.acc, b.n
	mask, or := uint64(1)<<w-1, uint32(0)
	for i := range dst {
		if n < w {
			if len(data) >= 4 {
				acc |= uint64(binary.LittleEndian.Uint32(data)) << n
				data = data[4:]
				n += 32
			} else {
				for ; n < w; n += 8 {
					acc |= uint64(data[0]) << n
					data = data[1:]
				}
			}
		}
		v := uint32(acc & mask)
		acc >>= w
		n -= w
		dst[i] = v
		or |= v
	}
	b.data, b.acc, b.n = data, acc, n
	return or
}

// done reports whether everything left unread is zero padding.
func (b *bitReader) done() bool { return len(b.data) == 0 && b.acc == 0 }

// DecodeRTKPayload decodes a version 2 payload into a reply of the
// caller's (see RTKResponse) that refers to nothing in data: one id slab
// and one value slab, sub-sliced per cell. It accepts exactly what
// AppendPayload produces; every other input is an ErrBadQuery, found
// before anything is allocated for a count the input does not bear out.
func DecodeRTKPayload(data []byte) (*RTKResponse, error) {
	var out *RTKResponse
	bad := func(what string) (*RTKResponse, error) {
		out.Release() // half filled, and no one else's
		return nil, fmt.Errorf("%w: rtk payload: %s", ErrBadQuery, what)
	}
	ncells, rest, ok := readUvarint(data)
	if !ok || ncells > uint64(len(rest)) { // a cell is a byte at least
		return bad("cell count")
	}
	ndict, rest, ok := readUvarint(rest)
	if !ok || ndict > rtkMaxDict || 8*ndict > uint64(len(rest)) {
		return bad("dictionary size")
	}
	dict := rest[:8*ndict]
	for i := 8; i < len(dict); i += 8 {
		if binary.LittleEndian.Uint64(dict[i-8:]) >= binary.LittleEndian.Uint64(dict[i:]) {
			return bad("dictionary does not ascend")
		}
	}
	cells := rest[8*ndict:]
	wval := uint(valueWidth(int(ndict)))

	total, rest := 0, cells
	for i := uint64(0); i < ncells; i++ {
		c, err := readRTKCell(rest, wval, rtkMaxEntries-total)
		if err != nil {
			return nil, err
		}
		total, rest = total+c.n, c.rest
	}
	if len(rest) != 0 {
		return bad("trailing bytes")
	}

	out, ids, vals := NewRTKResponse(int(ncells), total)
	out.payloadLen = len(data)
	var used [rtkMaxDict / 64]uint64
	var chunk [256]uint32
	rest = cells
	for i := range out.Cells {
		c, _ := readRTKCell(rest, wval, rtkMaxEntries) // checked above
		rest = c.rest
		if c.n == 0 {
			continue
		}
		cell := &out.Cells[i]
		cell.IDs, ids = ids[:c.n:c.n], ids[c.n:]
		cell.Values, vals = vals[:c.n:c.n], vals[c.n:]

		id, or := c.first, uint32(0)
		cell.IDs[0] = int32(id)
		br := bitReader{data: c.idRun}
		for into := cell.IDs[1:]; len(into) > 0; {
			part := chunk[:min(len(into), len(chunk))]
			or |= br.read(part, c.wid)
			for k, d := range part {
				id += 1 + int64(d)
				into[k] = int32(id)
			}
			into = into[len(part):]
		}
		if id > math.MaxInt32 {
			return bad("document id out of range")
		}
		if uint(bits.Len32(or)) != c.wid || !br.done() {
			return bad("id deltas are not packed canonically")
		}

		br = bitReader{data: c.valRun}
		for into := cell.Values; len(into) > 0; {
			part := chunk[:min(len(into), len(chunk))]
			br.read(part, wval)
			for k, ref := range part {
				if uint64(ref) >= ndict {
					return bad("dictionary index out of range")
				}
				used[ref>>6] |= 1 << (ref & 63)
				into[k] = math.Float64frombits(binary.LittleEndian.Uint64(dict[8*ref:]))
			}
			into = into[len(part):]
		}
		if !br.done() {
			return bad("dictionary indexes are not packed canonically")
		}
	}
	seen := 0
	for _, u := range used {
		seen += bits.OnesCount64(u)
	}
	if uint64(seen) != ndict {
		return bad("unused dictionary entry")
	}
	return out, nil
}

// rtkCellHeader is one parsed cell: its entry count, first id and delta
// width, the two packed runs and what follows the cell.
type rtkCellHeader struct {
	n             int
	first         int64
	wid           uint
	idRun, valRun []byte
	rest          []byte
}

// readRTKCell parses the cell at the head of data, whose entry count
// may not exceed budget.
func readRTKCell(data []byte, wval uint, budget int) (c rtkCellHeader, err error) {
	bad := func(what string) (rtkCellHeader, error) {
		return c, fmt.Errorf("%w: rtk payload: %s", ErrBadQuery, what)
	}
	n, rest, ok := readUvarint(data)
	if !ok || n > uint64(budget) {
		return bad("entry count")
	}
	c.n, c.rest = int(n), rest
	if n == 0 {
		return c, nil
	}
	first, rest, ok := readUvarint(rest)
	if c.first = int64(first>>1) ^ -int64(first&1); !ok || c.first < math.MinInt32 || c.first > math.MaxInt32 {
		return bad("first document id")
	}
	if len(rest) == 0 || rest[0] > 32 {
		return bad("id width")
	}
	c.wid, rest = uint(rest[0]), rest[1:]
	idLen, valLen := packedLen(c.n-1, int(c.wid)), packedLen(c.n, int(wval))
	if idLen+valLen > len(rest) {
		return bad("packed runs exceed the input")
	}
	c.idRun, c.valRun, c.rest = rest[:idLen], rest[idLen:idLen+valLen], rest[idLen+valLen:]
	return c, nil
}

// readUvarint consumes one minimally encoded unsigned varint.
func readUvarint(data []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(data)
	if n <= 0 || n != varint.Len(v) {
		return 0, nil, false
	}
	return v, data[n:], true
}

// rtkCountWindow is the span of integer counts, centred on zero, the
// producers' presence table covers. It equals rtkMaxDict, so a reply
// whose counts all fall inside never overflows the dictionary.
const rtkCountWindow = rtkMaxDict

// rtkSizer computes a reply's payload length inside the loop that
// builds the reply: the producer passes every count it releases through
// note and every finished row through cell; finish records the length
// in the reply, or leaves it unrecorded (PayloadLen then measures) when
// something falls outside what the arithmetic covers.
type rtkSizer struct {
	seen  [rtkCountWindow]uint8 // seen[c + rtkCountWindow/2] is 1 once count c was released
	cells int                   // sum of rtkCellLen
	wide  bool                  // a count outside the window, or ids out of order
}

// note records one released count.
func (s *rtkSizer) note(c int64) {
	if u := uint64(c + rtkCountWindow/2); u < rtkCountWindow {
		s.seen[u] = 1
	} else {
		s.wide = true
	}
}

// cell records the ids of one finished row.
func (s *rtkSizer) cell(ids []int32) {
	first := int32(0)
	if len(ids) > 0 {
		first = ids[0]
	}
	or := deltaOR(ids)
	s.cells += rtkCellLen(len(ids), first, or)
	s.wide = s.wide || or>>32 != 0
}

// finish records the payload length in resp, every value of which is a
// count given to note plus noise. Distinct counts must give distinct
// values for the presence table to count the dictionary: below 2^40 the
// spacing of float64 is far under 1, so they do.
func (s *rtkSizer) finish(resp *RTKResponse, noise float64) {
	if s.wide || !(math.Abs(noise) < 1<<40) {
		return
	}
	ndict, total := 0, 0
	for i := 0; i < len(s.seen); i += 8 { // every byte is 0 or 1
		ndict += bits.OnesCount64(binary.LittleEndian.Uint64(s.seen[i:]))
	}
	for i := range resp.Cells {
		total += len(resp.Cells[i].IDs)
	}
	if total <= rtkMaxEntries {
		resp.payloadLen = rtkPayloadLen(resp.Cells, ndict, s.cells)
	}
}
