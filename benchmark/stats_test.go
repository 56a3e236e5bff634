package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten(), 50, 5},   // ceil(0.5*10) = 5th smallest
		{ten(), 90, 9},   // ceil(0.9*10) = 9th
		{ten(), 91, 10},  // ceil(9.1) = 10th
		{ten(), 100, 10}, // the maximum
		{ten(), 1, 1},    // never below the first
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{7}, 90, 7},
		{nil, 50, 0},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestBestPassAndBestOps(t *testing.T) {
	passes := []pass{
		{opMicros: []float64{10, 90, 10}, wall: 110 * time.Microsecond, speed: 1},
		{opMicros: []float64{10, 10, 10}, wall: 30 * time.Microsecond, speed: 1},
		{opMicros: []float64{50, 10, 12}, wall: 72 * time.Microsecond, speed: 1},
	}
	if best := bestPass(passes); best != &passes[1] {
		t.Errorf("bestPass chose the pass with wall %v, want the 30µs one", best.wall)
	}
	got := bestOpMicros(passes)
	for i, want := range []float64{10, 10, 10} {
		if got[i] != want {
			t.Errorf("best time of op %d = %v, want %v (interference only ever adds time)", i, got[i], want)
		}
	}
}

func TestSpeedFactor(t *testing.T) {
	if got := speed(referenceNominal, referenceNominal); got != 1 {
		t.Errorf("kernel at its nominal time scales by %v, want 1", got)
	}
	// A machine on which the kernel takes twice as long is half as fast:
	// its clock readings halve at reference speed.
	if got := speed(2*referenceNominal, 2*referenceNominal); got != 0.5 {
		t.Errorf("kernel at twice its nominal time scales by %v, want 0.5", got)
	}
	slow := pass{opMicros: make([]float64, 10), wall: 2 * time.Second, speed: 0.5}
	if got := slow.opsPerSecond(); got != 10 {
		t.Errorf("10 ops in 2 s on a half-speed machine = %v ops/s at reference speed, want 10", got)
	}
}

func TestZipfCounts(t *testing.T) {
	counts := zipfCounts(110, zipfRanks, zipfExponent, zipfOffset)
	sum, distinct := 0, 0
	for r, c := range counts {
		sum += c
		if c > 0 {
			distinct++
		}
		if r > 0 && c > counts[r-1] {
			t.Fatalf("rank %d drawn %d times, more than rank %d (%d)", r, c, r-1, counts[r-1])
		}
	}
	if sum != 110 {
		t.Errorf("zipfCounts spread %d draws, want 110", sum)
	}
	if distinct < 40 || distinct > 80 {
		t.Errorf("%d distinct queries in 110 draws: the stream should repeat about half of them", distinct)
	}
}
