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
	// Dictionary order: sort the distinct values; rank turns an entry's
	// first-seen index into its sorted position as the entry is packed.
	e.sorted = append(e.sorted[:0], e.dict...)
	slices.Sort(e.sorted)
	e.rank = e.rank[:0]
	for _, b := range e.dict {
		at, _ := slices.BinarySearch(e.sorted, b)
		e.rank = append(e.rank, uint32(at))
	}

	dst = slices.Grow(dst, size+8) // a word of slack: the packers store whole words
	dst = binary.AppendUvarint(dst, uint64(len(r.Cells)))
	dst = binary.AppendUvarint(dst, uint64(len(e.sorted)))
	for _, b := range e.sorted {
		dst = binary.LittleEndian.AppendUint64(dst, b)
	}
	wval := uint(valueWidth(len(e.sorted)))
	refs := e.refs
	for i := range r.Cells {
		ids := r.Cells[i].IDs
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		if len(ids) == 0 {
			continue
		}
		dst = binary.AppendVarint(dst, int64(ids[0]))
		dst = append(dst, e.widths[i])
		dst = packDeltas(dst, ids, uint(e.widths[i]))
		dst = packRanks(dst, refs[:len(ids)], e.rank, wval)
		refs = refs[len(ids):]
	}
	return dst, true
}

// rtkEncoder is the pooled working memory of one measure or encode: the
// table that finds the distinct values, and per entry its value's index.
type rtkEncoder struct {
	slots  [2 * rtkMaxDict]uint16 // open addressing on the value bits, at most half full: 1 + index into dict, 0 empty
	dict   []uint64               // distinct value bits, in first-seen order
	sorted []uint64               // dict, ascending
	rank   []uint32               // dict index -> index into sorted
	refs   []uint32               // per entry: its value's dict index
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
	e.refs = slices.Grow(e.refs[:0], total)[:total]
	refs, cellsLen := e.refs, 0
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
		e.widths = append(e.widths, uint8(bits.Len64(or)))
		cellsLen += rtkCellLen(n, c.IDs[0], or)
		for k, v := range c.Values {
			// Most entries find their value in the first slot they hash
			// to: a test that predicts well, where one against the entry
			// before would mispredict at every other entry of a reply
			// whose runs of equal values are short.
			b := math.Float64bits(v)
			if s := e.slots[rtkSlot(b)]; s != 0 && e.dict[s-1] == b {
				refs[k] = uint32(s - 1)
				continue
			}
			ref, ok := e.intern(b)
			if !ok {
				return 0, false
			}
			refs[k] = ref
		}
		refs = refs[n:]
	}
	return rtkPayloadLen(r.Cells, len(e.dict), cellsLen), true
}

// rtkSlot is the slot of rtkEncoder.slots that a value's bits probe
// first.
func rtkSlot(b uint64) uint64 { return b * 0x9E3779B97F4A7C15 >> (64 - rtkDictBits - 1) }

// intern returns the index in dict of a value's bits, adding them if
// they are new; false once the dictionary is full.
func (e *rtkEncoder) intern(b uint64) (uint32, bool) {
	const mask = uint64(len(e.slots) - 1)
	for h := rtkSlot(b); ; h = (h + 1) & mask {
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

// The packers and unpackers below move a run of w-bit values (LSB-first,
// the last byte zero-padded) a group at a time: for w <= 8, eight values
// fill exactly w bytes of one little-endian uint64, so a group is one
// word stored or loaded and the run stays byte-aligned between groups.
// What is left — fewer than eight values, the last bytes of the input,
// or every value of a wider run — goes through a 64-bit accumulator
// flushed or refilled 32 bits at a time.

// packDeltas appends the len(ids)-1 values (id - previous id - 1), w
// bits each; every one is below 1<<w. dst has a word of capacity past
// what it appends.
func packDeltas(dst []byte, ids []int32, w uint) []byte {
	if w == 0 {
		return dst
	}
	if w <= 8 {
		for ; len(ids) > 8; ids = ids[8:] {
			d := ids[:9:9]
			word := uint64(uint32(d[1]-d[0]-1)) |
				uint64(uint32(d[2]-d[1]-1))<<w |
				uint64(uint32(d[3]-d[2]-1))<<(2*w) |
				uint64(uint32(d[4]-d[3]-1))<<(3*w) |
				uint64(uint32(d[5]-d[4]-1))<<(4*w) |
				uint64(uint32(d[6]-d[5]-1))<<(5*w) |
				uint64(uint32(d[7]-d[6]-1))<<(6*w) |
				uint64(uint32(d[8]-d[7]-1))<<(7*w)
			n := len(dst)
			binary.LittleEndian.PutUint64(dst[n:n+8], word)
			dst = dst[:n+int(w)]
		}
	}
	acc, n := uint64(0), uint(0)
	for k := 1; k < len(ids); k++ {
		acc |= uint64(uint32(ids[k]-ids[k-1]-1)) << n
		if n += w; n >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	return appendBits(dst, acc, n)
}

// packRanks appends rank[ref] for every ref, w bits each; every rank is
// below 1<<w. dst has a word of capacity past what it appends.
func packRanks(dst []byte, refs, rank []uint32, w uint) []byte {
	if w == 0 {
		return dst
	}
	if w <= 8 {
		for ; len(refs) >= 8; refs = refs[8:] {
			r := refs[:8:8]
			word := uint64(rank[r[0]]) |
				uint64(rank[r[1]])<<w |
				uint64(rank[r[2]])<<(2*w) |
				uint64(rank[r[3]])<<(3*w) |
				uint64(rank[r[4]])<<(4*w) |
				uint64(rank[r[5]])<<(5*w) |
				uint64(rank[r[6]])<<(6*w) |
				uint64(rank[r[7]])<<(7*w)
			n := len(dst)
			binary.LittleEndian.PutUint64(dst[n:n+8], word)
			dst = dst[:n+int(w)]
		}
	}
	acc, n := uint64(0), uint(0)
	for _, ref := range refs {
		acc |= uint64(rank[ref]) << n
		if n += w; n >= 32 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(acc))
			acc >>= 32
			n -= 32
		}
	}
	return appendBits(dst, acc, n)
}

// appendBits appends the n bits (n < 32) left in acc, zero-padded to a
// byte.
func appendBits(dst []byte, acc uint64, n uint) []byte {
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// unpackIDs fills ids from a cell's first id and run, its len(ids)-1
// deltas packed w bits each, one running sum per delta. It returns the
// last id before it is narrowed to int32, the OR of the deltas, and
// whether all of run after them is zero padding. The word loop may load
// from run's capacity past its length; no bit of that is used.
func unpackIDs(ids []int32, first int64, run []byte, w uint) (last int64, or uint64, canonical bool) {
	id, into, p := first, ids[1:], 0
	ids[0] = int32(id)
	mask := uint64(1)<<w - 1
	if w <= 8 {
		for ; len(into) >= 8 && p+8 <= cap(run); into = into[8:] {
			word := binary.LittleEndian.Uint64(run[p : p+8])
			p += int(w)
			d0, d1, d2, d3 := word&mask, word>>w&mask, word>>(2*w)&mask, word>>(3*w)&mask
			d4, d5, d6, d7 := word>>(4*w)&mask, word>>(5*w)&mask, word>>(6*w)&mask, word>>(7*w)&mask
			or |= d0 | d1 | d2 | d3 | d4 | d5 | d6 | d7
			to := into[:8:8]
			id += 1 + int64(d0)
			to[0] = int32(id)
			id += 1 + int64(d1)
			to[1] = int32(id)
			id += 1 + int64(d2)
			to[2] = int32(id)
			id += 1 + int64(d3)
			to[3] = int32(id)
			id += 1 + int64(d4)
			to[4] = int32(id)
			id += 1 + int64(d5)
			to[5] = int32(id)
			id += 1 + int64(d6)
			to[6] = int32(id)
			id += 1 + int64(d7)
			to[7] = int32(id)
		}
	}
	data, acc, n := run[p:], uint64(0), uint(0)
	for k := range into {
		if n < w {
			data, acc, n = refill(data, acc, n, w)
		}
		d := acc & mask
		acc >>= w
		n -= w
		or |= d
		id += 1 + int64(d)
		into[k] = int32(id)
	}
	return id, or, len(data) == 0 && acc == 0
}

// unpackRefs fills vals with table[index] for the len(vals) dictionary
// indexes packed w bits each in run (w <= rtkDictBits), and flags every
// index it meets in used. It returns the largest index and whether all
// of run after them is zero padding; an index past the dictionary
// reads a stale table entry, which the caller rejects by the maximum.
// The word loop may load from run's capacity past its length; no bit of
// that is used.
func unpackRefs(vals []float64, run []byte, w uint, table *[rtkMaxDict]float64, used *[rtkMaxDict]uint8) (hi uint64, canonical bool) {
	const ix = rtkMaxDict - 1 // a no-op on a w-bit index; it spares the bounds checks
	mask, p := uint64(1)<<w-1, 0
	if w <= 8 {
		for ; len(vals) >= 8 && p+8 <= cap(run); vals = vals[8:] {
			word := binary.LittleEndian.Uint64(run[p : p+8])
			p += int(w)
			r0, r1, r2, r3 := word&mask, word>>w&mask, word>>(2*w)&mask, word>>(3*w)&mask
			r4, r5, r6, r7 := word>>(4*w)&mask, word>>(5*w)&mask, word>>(6*w)&mask, word>>(7*w)&mask
			hi = max(hi, r0, r1, r2, r3, r4, r5, r6, r7)
			used[r0&ix], used[r1&ix], used[r2&ix], used[r3&ix] = 1, 1, 1, 1
			used[r4&ix], used[r5&ix], used[r6&ix], used[r7&ix] = 1, 1, 1, 1
			to := vals[:8:8]
			to[0], to[1], to[2], to[3] = table[r0&ix], table[r1&ix], table[r2&ix], table[r3&ix]
			to[4], to[5], to[6], to[7] = table[r4&ix], table[r5&ix], table[r6&ix], table[r7&ix]
		}
	}
	data, acc, n := run[p:], uint64(0), uint(0)
	for k := range vals {
		if n < w {
			data, acc, n = refill(data, acc, n, w)
		}
		ref := acc & mask
		acc >>= w
		n -= w
		hi = max(hi, ref)
		used[ref&ix] = 1
		vals[k] = table[ref&ix]
	}
	return hi, len(data) == 0 && acc == 0
}

// refill tops up acc, which holds n < w bits, to at least w bits from
// data: 32 bits at once while four bytes remain, else byte by byte. The
// caller has checked that data holds them.
func refill(data []byte, acc uint64, n, w uint) ([]byte, uint64, uint) {
	if len(data) >= 4 {
		return data[4:], acc | uint64(binary.LittleEndian.Uint32(data))<<n, n + 32
	}
	for ; n < w; n += 8 {
		acc |= uint64(data[0]) << n
		data = data[1:]
	}
	return data, acc, n
}

// rtkDecoder is the pooled working memory of one decode: the dictionary
// as float64 values, and a flag per index the cells use.
type rtkDecoder struct {
	table [rtkMaxDict]float64
	used  [rtkMaxDict]uint8
}

var rtkDecoders = sync.Pool{New: func() any { return new(rtkDecoder) }}

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
	data = data[:len(data):len(data)] // the word loops load up to the payload's end, never past it
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
	d := rtkDecoders.Get().(*rtkDecoder)
	defer rtkDecoders.Put(d)
	for i := range int(ndict) {
		d.table[i] = math.Float64frombits(binary.LittleEndian.Uint64(dict[8*i:]))
	}
	flags := max(1<<wval, 8) // counted a word at a time below
	clear(d.used[:flags])
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

		last, or, canonical := unpackIDs(cell.IDs, c.first, c.idRun, c.wid)
		if last > math.MaxInt32 {
			return bad("document id out of range")
		}
		if uint(bits.Len64(or)) != c.wid || !canonical {
			return bad("id deltas are not packed canonically")
		}
		hi, canonical := unpackRefs(cell.Values, c.valRun, wval, &d.table, &d.used)
		if hi >= ndict {
			return bad("dictionary index out of range")
		}
		if !canonical {
			return bad("dictionary indexes are not packed canonically")
		}
	}
	seen := 0
	for i := 0; i < flags; i += 8 { // every flag is 0 or 1, and none is set past ndict
		seen += bits.OnesCount64(binary.LittleEndian.Uint64(d.used[i:]))
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
