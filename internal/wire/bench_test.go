package wire

import "testing"

// BenchmarkWireRTK measures the codec on the protocol's dominant
// payload at the benchmark geometry (30 cells of 250 entries, noisy
// values): encode into a reused buffer, decode, and the sizing pass the
// coordinator runs on every relayed reply. frameB is what crosses a
// socket, rawB what the byte accounting records.
func BenchmarkWireRTK(b *testing.B) {
	resp := geometryResponse(9)
	frame := AppendRTKResponse(nil, resp)
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(frame)), "frameB")
		b.ReportMetric(float64(SizeRTKResponse(resp)), "rawB")
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(frame))
		for i := 0; i < b.N; i++ {
			buf = AppendRTKResponse(buf[:0], resp)
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
	b.Run("size", func(b *testing.B) {
		b.ReportAllocs()
		var n int64
		for i := 0; i < b.N; i++ {
			n += SizeRTKResponse(resp)
		}
		if n == 0 {
			b.Fatal("empty reply")
		}
		report(b)
	})
}
