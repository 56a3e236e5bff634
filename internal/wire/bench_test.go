package wire

import (
	"testing"

	"csfltr/internal/core"
)

// BenchmarkWireRTK measures the codec on the protocol's dominant
// payload at the benchmark geometry (30 cells of 250 entries, noisy
// values): encode into a reused buffer, decode, and the sizing the
// coordinator does for every relayed reply — a field read for a reply
// that carries its length (any reply a producer or the decoder made),
// a measuring walk for one that does not. frameB is what crosses a
// socket, rawB what the byte accounting records; a version 2 frame is
// stored, so they are equal.
func BenchmarkWireRTK(b *testing.B) {
	measured := geometryResponse(9)
	frame := AppendRTKResponse(nil, measured)
	carried, err := DecodeRTKResponse(frame)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(frame)), "frameB")
		b.ReportMetric(float64(SizeRTKResponse(carried)), "rawB")
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(frame))
		for i := 0; i < b.N; i++ {
			buf = AppendRTKResponse(buf[:0], carried)
		}
		report(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRTKResponse(frame); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	for name, resp := range map[string]*core.RTKResponse{"size/carried": carried, "size/measured": measured} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var n int64
			for i := 0; i < b.N; i++ {
				n += SizeRTKResponse(resp)
			}
			if n != int64(b.N)*int64(len(frame)) {
				b.Fatalf("sized %d over %d calls, frame %d bytes", n, b.N, len(frame))
			}
			report(b)
		})
	}
}
