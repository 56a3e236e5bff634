// Package wire is the compact binary codec shared by every federation
// transport. The protocol's dominant payloads — RTK-Sketch cell replies,
// TF value vectors, obfuscated column queries — are small integers with
// strong local structure (canonically sorted document ids, quantized
// counts), which fixed-width encodings (JSON, the "raw" accounting's 12
// bytes per entry) waste heavily. An RTK reply
// — nearly all of the traffic — travels in a version 2 frame: document
// id deltas bit-packed per cell, values as bit-packed indexes into one
// per-reply dictionary, stored as is (internal/core owns that layout
// and its size arithmetic; see core.RTKResponse.AppendPayload). Every
// other payload is varint deltas and zig-zag varints in a version 1
// frame, flate-compressed above a size threshold.
//
// Layering: wire depends only on the standard library, internal/core and
// the varint size rule the two share (internal/varint);
// internal/federation builds its transport codecs (HTTP bodies,
// SearchResult) on the exported primitives, so byte accounting
// and format versioning stay in one place.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"csfltr/internal/varint"
)

// The first byte of every frame is its version. Decoders reject frames
// with a version they do not know; adding fields or changing a payload
// layout requires a bump.
const (
	// Version frames every payload but an RTK reply, and an RTK reply
	// that VersionRTK cannot represent (a cell whose ids do not strictly
	// ascend, too many distinct values): varints, flate above
	// CompressThreshold.
	Version = 1
	// VersionRTK frames an RTK reply: bit-packed and always stored. A
	// peer that knows only Version rejects it with "unknown version 2",
	// so queriers and coordinators upgrade before the hosts they call.
	VersionRTK = 2
)

// Frame flag bits (second byte of every frame).
const (
	flagCompressed = 1 << 0 // payload is flate-compressed
)

// CompressThreshold is the payload size (bytes) above which Pack
// attempts flate compression. Below it the frame overhead and the flate
// dictionary warm-up cost more than they save.
const CompressThreshold = 512

// maxPayload caps the decoded payload size (and therefore every decoder
// allocation) so a malformed or hostile frame cannot demand absurd
// memory before its content is even parsed. RTK replies at default
// geometry are well under a megabyte.
const maxPayload = 1 << 26

// ErrMalformed marks any decode failure: truncation, bad version,
// implausible lengths, trailing garbage.
var ErrMalformed = errors.New("wire: malformed payload")

// maxPooledScratch caps the scratch a pooled packer or inflater keeps
// between frames, so one outsized frame does not pin its buffers for
// the life of the process.
const maxPooledScratch = 1 << 20

// packer is the reusable state of one Pack call: the flate writer, the
// buffer it compresses into and scratch for the payload under
// construction. flate.NewWriter allocates over a megabyte of tables, so
// the writer is built the first time its pool entry compresses a frame —
// a version 2 RTK reply, never compressed, takes a packer only for its
// payload scratch — and Reset between frames; Reset makes a writer
// equivalent to a new one, so the compressed bytes do not depend on what
// the entry packed before.
type packer struct {
	zw      *flate.Writer
	z       bytes.Buffer
	payload []byte
}

var packers = sync.Pool{New: func() any { return new(packer) }}

func putPacker(p *packer) {
	if cap(p.payload) <= maxPooledScratch && p.z.Cap() <= maxPooledScratch {
		packers.Put(p)
	}
}

// pack appends the frame of payload to dst.
func (p *packer) pack(dst, payload []byte) []byte {
	if len(payload) >= CompressThreshold {
		p.z.Reset()
		if p.zw == nil {
			p.zw, _ = flate.NewWriter(&p.z, flate.BestSpeed) // fails only on an invalid level
		} else {
			p.zw.Reset(&p.z)
		}
		if _, err := p.zw.Write(payload); err == nil && p.zw.Close() == nil && p.z.Len() < len(payload) {
			return append(appendHeader(dst, Version, flagCompressed, len(payload)), p.z.Bytes()...)
		}
	}
	return appendStored(dst, Version, payload)
}

// appendHeader appends [version][flags][uvarint raw length], what every
// frame begins with; the body follows.
func appendHeader(dst []byte, version, flags byte, rawLen int) []byte {
	dst = append(dst, version, flags)
	return binary.AppendUvarint(dst, uint64(rawLen))
}

// appendStored appends the frame that holds payload as it is.
func appendStored(dst []byte, version byte, payload []byte) []byte {
	return append(appendHeader(dst, version, 0, len(payload)), payload...)
}

// Pack wraps an encoded payload in the versioned frame, appending to
// dst: [version][flags][uvarint raw length][payload]. Payloads of
// CompressThreshold bytes or more are flate-compressed when that
// actually shrinks them.
func Pack(dst, payload []byte) []byte {
	if len(payload) < CompressThreshold {
		return appendStored(dst, Version, payload)
	}
	p := packers.Get().(*packer)
	dst = p.pack(dst, payload)
	putPacker(p)
	return dst
}

// PackedSize returns the size of a stored frame of payloadLen bytes:
// exactly what a VersionRTK frame occupies, and for a Version frame the
// deterministic, allocation-free upper bound used for byte accounting
// (compression savings on top are workload-dependent).
func PackedSize(payloadLen int) int64 {
	return int64(2 + varint.Len(uint64(payloadLen)) + payloadLen)
}

// splitFrame validates the header of a frame of the given version and
// returns the frame body, the raw payload length it declares and
// whether the body is compressed. The input must contain exactly one
// frame. A VersionRTK frame is never compressed and, its encoding being
// canonical, declares its length in a minimal varint.
func splitFrame(data []byte, version byte) (body []byte, rawLen int, compressed bool, err error) {
	if len(data) < 2 {
		return nil, 0, false, fmt.Errorf("%w: truncated frame", ErrMalformed)
	}
	if data[0] != version {
		return nil, 0, false, fmt.Errorf("%w: unknown version %d", ErrMalformed, data[0])
	}
	flags := data[1]
	if flags&^byte(flagCompressed) != 0 || (version == VersionRTK && flags != 0) {
		return nil, 0, false, fmt.Errorf("%w: unknown flags %#x", ErrMalformed, flags)
	}
	raw, n := binary.Uvarint(data[2:])
	if n <= 0 || raw > maxPayload || (version == VersionRTK && n != varint.Len(raw)) {
		return nil, 0, false, fmt.Errorf("%w: bad payload length", ErrMalformed)
	}
	body = data[2+n:]
	if flags&flagCompressed == 0 {
		if uint64(len(body)) != raw {
			return nil, 0, false, fmt.Errorf("%w: payload length mismatch", ErrMalformed)
		}
		return body, int(raw), false, nil
	}
	// Compression only ever shrinks the body (Pack keeps the raw payload
	// otherwise), so a compressed body at least as large as its claimed
	// raw length is malformed — and this bound also keeps the inflate
	// from being fed unbounded garbage.
	if uint64(len(body)) >= raw {
		return nil, 0, false, fmt.Errorf("%w: compressed payload not smaller than raw", ErrMalformed)
	}
	return body, int(raw), true, nil
}

// NextFrame splits the first frame off data, a body of one or more
// frames back to back (the requests and replies of a reverse top-K
// batch). A stored frame declares its length and ends there. A
// compressed frame declares only the length it inflates to, so it runs
// to the end of the body: encoders store every frame but the last (see
// AppendTFQueries), and one that is not last fails to decode. The frame
// itself is validated by whichever decoder it is handed to.
func NextFrame(data []byte) (frame, rest []byte, err error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated frame", ErrMalformed)
	}
	raw, n := binary.Uvarint(data[2:])
	if n <= 0 || raw > maxPayload {
		return nil, nil, fmt.Errorf("%w: bad payload length", ErrMalformed)
	}
	if data[1]&flagCompressed != 0 {
		return data, nil, nil
	}
	end := 2 + n + int(raw)
	if end > len(data) {
		return nil, nil, fmt.Errorf("%w: truncated frame", ErrMalformed)
	}
	return data[:end:end], data[end:], nil
}

// inflater is the reusable state of one inflate: the flate reader, the
// byte reader it pulls from and scratch for decoders that do not keep
// the payload. The reader is Reset before every frame, so a stream that
// failed half way leaves nothing behind for the next one.
type inflater struct {
	zr      io.ReadCloser // always a flate.Resetter
	src     bytes.Reader
	scratch []byte
	one     [1]byte
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.zr = flate.NewReader(&f.src)
	return f
}}

func putInflater(f *inflater) {
	f.src.Reset(nil) // do not pin the caller's frame
	if cap(f.scratch) <= maxPooledScratch {
		inflaters.Put(f)
	}
}

// inflate decompresses body into out. The stream must end, cleanly, at
// exactly len(out) — the frame's declared raw length — so a frame cut
// short inside the stream's trailer is malformed like any other.
func (f *inflater) inflate(out, body []byte) error {
	f.src.Reset(body)
	if err := f.zr.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return fmt.Errorf("%w: inflate: %v", ErrMalformed, err)
	}
	if _, err := io.ReadFull(f.zr, out); err != nil {
		return fmt.Errorf("%w: inflate: %v", ErrMalformed, err)
	}
	if n, err := f.zr.Read(f.one[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("%w: inflated payload does not end at its declared length", ErrMalformed)
	}
	return nil
}

// Unpack validates a Version frame and returns the raw payload: a
// sub-slice of data for a stored frame, a new slice for a compressed one
// — never pooled memory, so the caller may keep it. The input must
// contain exactly one frame; trailing bytes are an error.
func Unpack(data []byte) ([]byte, error) {
	body, rawLen, compressed, err := splitFrame(data, Version)
	if err != nil || !compressed {
		return body, err
	}
	out := make([]byte, rawLen)
	f := inflaters.Get().(*inflater)
	err = f.inflate(out, body)
	putInflater(f)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// Uvarint consumes one unsigned varint from data.
func Uvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrMalformed)
	}
	return v, data[n:], nil
}

// Varint consumes one zig-zag varint from data.
func Varint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrMalformed)
	}
	return v, data[n:], nil
}

// checkCount validates an element count claimed by a varint against the
// bytes actually remaining: every element of any wire array costs at
// least one byte, so a count exceeding the remainder is malformed and
// must be rejected before anything is allocated for it.
func checkCount(n uint64, rest []byte) error {
	if n > uint64(len(rest)) {
		return fmt.Errorf("%w: count %d exceeds remaining input", ErrMalformed, n)
	}
	return nil
}
