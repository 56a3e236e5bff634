package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/zipf"
)

// packOracle is Pack as it was before the flate state was pooled: a new
// writer per frame. The pooled Pack must produce the same bytes.
func packOracle(payload []byte) []byte {
	flags, body := byte(0), payload
	if len(payload) >= CompressThreshold {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err == nil {
			if _, err = zw.Write(payload); err == nil && zw.Close() == nil && buf.Len() < len(payload) {
				flags, body = flagCompressed, buf.Bytes()
			}
		}
	}
	dst := binary.AppendUvarint([]byte{Version, flags}, uint64(len(payload)))
	return append(dst, body...)
}

// geometryResponse builds an RTK reply of the benchmark's geometry — 30
// cells of 250 ascending document ids — whose values are small counts
// plus one shared noise draw, as an owner releases them at Epsilon > 0.
func geometryResponse(seed int64) *core.RTKResponse {
	rng := rand.New(rand.NewSource(seed))
	noise := rng.NormFloat64()
	resp := &core.RTKResponse{Cells: make([]core.RTKCell, 30)}
	for c := range resp.Cells {
		ids, vals := make([]int32, 250), make([]float64, 250)
		id := int32(rng.Intn(8))
		for i := range ids {
			ids[i], vals[i] = id, float64(1+rng.Intn(6))+noise
			id += 1 + int32(rng.Intn(4))
		}
		resp.Cells[c] = core.RTKCell{IDs: ids, Values: vals}
	}
	return resp
}

// ownerResponse is the reply an owner releases at the benchmark geometry
// (30 cells of alpha*K = 250, epsilon 0.5) over 400 documents of 120
// Zipf(1.1) tokens, for a term the querier plans: unlike
// geometryResponse's, its values are a few dozen non-zero counts in runs
// of equal ones plus the noise draw, and its id deltas pack at 3 to 6
// bits. Everything is drawn from seed.
func ownerResponse(tb testing.TB, seed int64) *core.RTKResponse {
	tb.Helper()
	p := core.DefaultParams()
	p.K = 50
	mech, err := dp.ForEpsilon(p.Epsilon, rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	owner, err := core.NewOwner(p, 42, mech)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	terms := zipf.MustNew(8000, 1.1)
	docs := make([]core.DocCounts, 400)
	for id := range docs {
		counts := map[uint64]int64{}
		for j := 0; j < 120; j++ {
			counts[uint64(terms.Sample(rng))]++
		}
		docs[id] = core.DocCounts{DocID: id, Counts: counts}
	}
	if err := owner.AddDocuments(docs); err != nil {
		tb.Fatal(err)
	}
	querier, err := core.NewQuerier(p, 42, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := owner.AnswerRTK(querier.Plan(uint64(1 + rng.Intn(50))).Query())
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// TestPackMatchesFreshWriter: over payloads around CompressThreshold and
// up to 256 kB, of every compressibility, a pooled and Reset writer
// emits exactly the bytes a new one does, and the frame unpacks to the
// payload.
func TestPackMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		var size int
		switch {
		case trial%4 != 0:
			size = CompressThreshold - 64 + rng.Intn(128)
		case trial%16 != 0:
			size = rng.Intn(8 << 10)
		default:
			size = rng.Intn(256<<10 + 1)
		}
		payload := make([]byte, size)
		switch rng.Intn(3) {
		case 0: // incompressible: Pack keeps the raw payload
			rng.Read(payload)
		case 1: // varint-like: small values, a few distinct bytes
			for i := range payload {
				payload[i] = byte(rng.Intn(1 + rng.Intn(12)))
			}
		default: // long repeats
			unit := make([]byte, 1+rng.Intn(40))
			rng.Read(unit)
			for i := range payload {
				payload[i] = unit[i%len(unit)]
			}
		}
		prefix := []byte("keep")
		got := Pack(prefix, payload)
		if want := append([]byte("keep"), packOracle(payload)...); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (size %d): pooled frame of %d bytes differs from a fresh writer's %d",
				trial, size, len(got), len(want))
		}
		back, err := Unpack(got[len(prefix):])
		if err != nil {
			t.Fatalf("trial %d (size %d): %v", trial, size, err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("trial %d (size %d): payload corrupted", trial, size)
		}
	}
}

// TestUnpackRecoversAfterMalformedFrame: a compressed frame that is
// truncated or has a flipped bit fails with ErrMalformed — or, where the
// flip survives inflation, decodes to something else — and the pooled
// reader it ran on then decodes a good frame exactly.
func TestUnpackRecoversAfterMalformedFrame(t *testing.T) {
	resp := geometryResponse(3)
	// A version 1 frame from Pack: an RTK reply's own frame is version 2
	// and never compressed.
	good := Pack(nil, appendRTKPayloadV1(nil, resp))
	if good[0] != Version || good[1]&flagCompressed == 0 {
		t.Fatal("the geometry reply's version 1 payload should compress")
	}
	rng := rand.New(rand.NewSource(5))
	check := func(name string, bad []byte) {
		t.Helper()
		if _, err := Unpack(bad); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: Unpack: %v, want ErrMalformed", name, err)
		}
		if _, err := DecodeRTKResponse(bad); err != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s: DecodeRTKResponse: %v, want ErrMalformed", name, err)
		}
		got, err := DecodeRTKResponse(good)
		if err != nil || !respEqual(got, resp) {
			t.Fatalf("%s: good frame after a bad one: err %v", name, err)
		}
		payload, err := Unpack(good)
		if again, err2 := Unpack(good); err != nil || err2 != nil || !bytes.Equal(payload, again) {
			t.Fatalf("%s: Unpack after a bad frame: %v / %v", name, err, err2)
		}
	}
	for cut := len(good) - 1; cut > 4; cut -= 1 + rng.Intn(len(good)/40) {
		bad := good[:cut]
		if _, err := Unpack(bad); !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated at %d: %v, want ErrMalformed", cut, err)
		}
		check(fmt.Sprintf("truncated at %d", cut), bad)
	}
	for trial := 0; trial < 200; trial++ {
		bad := bytes.Clone(good)
		bit := 8*4 + rng.Intn(8*(len(bad)-4)) // past the header
		bad[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), bad)
	}
}

// TestCodecConcurrent: goroutines sharing the pools each get their own
// answer back (run under -race by make race and CI).
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp := geometryResponse(int64(100 + g))
			want := AppendRTKResponse(nil, resp)
			var frame []byte
			for i := 0; i < 40; i++ {
				frame = AppendRTKResponse(frame[:0], resp)
				if !bytes.Equal(frame, want) {
					t.Errorf("goroutine %d: frame %d differs from its first encoding", g, i)
					return
				}
				got, err := DecodeRTKResponse(frame)
				if err != nil || !respEqual(got, resp) {
					t.Errorf("goroutine %d: decode %d diverged: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodedResponseOwnsItsMemory: a decoded reply is its caller's for
// as long as the caller keeps it. Nothing it refers to may be scratch a
// later decode reuses, nor memory that other replies, decoded and
// released around it, hand back and forth.
func TestDecodedResponseOwnsItsMemory(t *testing.T) {
	resp := geometryResponse(1)
	first, err := DecodeRTKResponse(AppendRTKResponse(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		other, err := DecodeRTKResponse(AppendRTKResponse(nil, geometryResponse(int64(2+i))))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			other.Release()
		}
	}
	if !respEqual(first, resp) {
		t.Fatal("a decoded response changed under later decodes")
	}
}

// TestLeaseDecodedCellsEndAtTheirRows: both decoders carve a reply from
// slabs that arrive as an earlier reply left them, so every cell must
// end where its row ends — capacity equal to length — and each decode
// of the same frame must give the same reply, whatever was released in
// between (here: a larger reply full of a value the frame does not
// hold).
func TestLeaseDecodedCellsEndAtTheirRows(t *testing.T) {
	resp := geometryResponse(6)
	frames := map[string][]byte{
		"version 2":             AppendRTKResponse(nil, resp),
		"version 1, compressed": Pack(nil, appendRTKPayloadV1(nil, resp)),
	}
	for name, frame := range frames {
		for round := 0; round < 4; round++ {
			for i := 0; i < 8; i++ { // the race detector's sync.Pool drops some Puts
				stale, ids, vals := core.NewRTKResponse(40, 12000)
				for k := range ids {
					ids[k], vals[k] = -777, -777
				}
				stale.Release()
			}
			got, err := DecodeRTKResponse(frame)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for a, c := range got.Cells {
				if cap(c.IDs) != len(c.IDs) || cap(c.Values) != len(c.Values) {
					t.Fatalf("%s: row %d has %d ids in capacity %d, %d values in capacity %d",
						name, a, len(c.IDs), cap(c.IDs), len(c.Values), cap(c.Values))
				}
			}
			if !respEqual(got, resp) {
				t.Fatalf("%s, round %d: decoding into recycled memory gave another reply", name, round)
			}
			got.Release()
		}
	}
}

// TestRTKEncodeBuildsNoFlateWriter: a version 2 RTK reply is never
// compressed, so encoding one from empty pools — as they are again after
// a garbage collection — builds no flate writer, which is over a
// megabyte of tables: it allocates the packer, its payload scratch and
// the reply encoder's scratch (about 60 kB at this geometry), nothing
// near a writer's size.
func TestRTKEncodeBuildsNoFlateWriter(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	resp := geometryResponse(9)
	buf := AppendRTKResponse(nil, resp)
	if buf[0] != VersionRTK {
		t.Fatalf("the geometry reply's frame is version %d, want %d", buf[0], VersionRTK)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC() // a pooled packer survives one collection in the victim cache
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf = AppendRTKResponse(buf[:0], resp)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256<<10); got > limit {
		t.Fatalf("encoding a %d-byte version 2 frame from empty pools allocated %d B, want at most %d", len(buf), got, limit)
	}
}

// TestRTKCodecAllocCeilings pins the steady-state allocation cost of the
// dominant payload at the benchmark geometry. Encoding into a reused
// buffer allocates nothing, for the RTK reply and for the TF pair that
// accompanies it on every HTTP call. Decoding allocates the reply —
// header, cells, one id slab, one value slab — and nothing else: a
// version 2 frame is stored, so nothing inflates. A caller that
// releases the reply leaves the next decode the header to allocate and
// nothing of the reply's size. A compressed version
// 1 frame still decodes, at what compress/flate itself allocates per
// stream even on a Reset reader: a few small Huffman link tables per
// dynamic block, whose number depends on the data.
func TestRTKCodecAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	resp := geometryResponse(9)
	frame := AppendRTKResponse(nil, resp)
	if frame[0] != VersionRTK || frame[1] != 0 {
		t.Fatalf("the geometry reply's frame starts %#x %#x, want a stored version 2 frame", frame[0], frame[1])
	}
	decoded, err := DecodeRTKResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	v1 := Pack(nil, appendRTKPayloadV1(nil, resp))
	buf := make([]byte, 0, 2*len(frame))
	entries := 0
	for _, c := range resp.Cells {
		entries += len(c.IDs)
	}
	decode := func(frame []byte) func() {
		return func() {
			if _, err := DecodeRTKResponse(frame); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, r := range map[string]*core.RTKResponse{"built by hand": resp, "decoded": decoded} {
		encAllocs, encBytes := perRun(200, func() { buf = AppendRTKResponse(buf[:0], r) })
		if encAllocs > 1 || encBytes > 1<<10 {
			t.Errorf("AppendRTKResponse, reply %s: %.1f allocs/op, %.0f B/op, want at most 1 and 1 kB", name, encAllocs, encBytes)
		}
	}
	query := []*core.TFQuery{{Cols: make([]uint32, 30)}}
	values := &core.TFResponse{Values: resp.Cells[0].Values[:30]}
	if n, _ := perRun(200, func() { buf = AppendTFQueries(buf[:0], query) }); n > 0 {
		t.Errorf("AppendTFQueries: %.1f allocs/op, want 0", n)
	}
	if n, _ := perRun(200, func() { buf = AppendTFResponse(buf[:0], values) }); n > 0 {
		t.Errorf("AppendTFResponse: %.1f allocs/op, want 0", n)
	}
	tfFrame := AppendTFResponse(nil, values)
	if n, _ := perRun(200, func() {
		r, err := DecodeTFResponse(tfFrame)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}); n > 0 {
		t.Errorf("DecodeTFResponse, reply released: %.1f allocs/op, want 0", n)
	}
	decAllocs, decBytes := perRun(200, decode(frame))
	if decAllocs > 4 {
		t.Errorf("DecodeRTKResponse, reply kept: %.1f allocs/op, want at most 4", decAllocs)
	}
	if slabs := float64(12 * entries); decBytes > 1.2*slabs {
		t.Errorf("DecodeRTKResponse, reply kept: %.0f B/op, want at most 1.2x the %.0f B of slabs it returns", decBytes, slabs)
	}
	relAllocs, relBytes := perRun(200, func() {
		r, err := DecodeRTKResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})
	if relAllocs > 2 || relBytes > 1<<10 {
		t.Errorf("DecodeRTKResponse, reply released: %.1f allocs/op, %.0f B/op, want at most 2 and 1 kB", relAllocs, relBytes)
	}
	if n, _ := perRun(200, decode(v1)); n > 24 {
		t.Errorf("DecodeRTKResponse, compressed version 1 frame: %.1f allocs/op, want at most 24", n)
	}
	t.Logf("frame %d B; decode %.0f allocs %.0f B/op for %d B of slabs", len(frame), decAllocs, decBytes, 12*entries)
}

// perRun returns the mean allocation count (rounded down, as
// testing.AllocsPerRun does, so a stray runtime allocation does not
// count) and bytes of one call of f, after a warm-up call has filled
// the pools.
func perRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
