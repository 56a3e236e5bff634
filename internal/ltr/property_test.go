package ltr

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// boundedLabels converts raw bytes to a label sequence in {0, 1, 2}.
func boundedLabels(raw []uint8) []float64 {
	out := make([]float64, len(raw))
	for i, r := range raw {
		out[i] = float64(r % 3)
	}
	return out
}

// TestNDCGBounds (property): nDCG is always in [0, 1], and the ideal
// (descending) ordering achieves exactly 1.
func TestNDCGBounds(t *testing.T) {
	check := func(raw []uint8) bool {
		labels := boundedLabels(raw)
		v, ok := NDCGAt(labels, 0)
		if !ok {
			// All-zero labels: skipping is the contract.
			for _, l := range labels {
				if l != 0 {
					return false
				}
			}
			return true
		}
		if v < 0 || v > 1+1e-12 {
			return false
		}
		ideal := append([]float64(nil), labels...)
		sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
		iv, ok := NDCGAt(ideal, 0)
		return ok && math.Abs(iv-1) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestERRBounds (property): ERR is in [0, 1) for grades capped at 2, and
// moving a relevant document earlier never decreases it.
func TestERRBounds(t *testing.T) {
	check := func(raw []uint8) bool {
		labels := boundedLabels(raw)
		v := ERRAt(labels, 0)
		if v < 0 || v >= 1 {
			return v == 0 && len(labels) == 0
		}
		// Swap the first adjacent (low, high) pair to promote relevance;
		// ERR must not decrease.
		promoted := append([]float64(nil), labels...)
		for i := 0; i+1 < len(promoted); i++ {
			if promoted[i] < promoted[i+1] {
				promoted[i], promoted[i+1] = promoted[i+1], promoted[i]
				break
			}
		}
		return ERRAt(promoted, 0) >= v-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDCGSwapMonotonicity (property): swapping a more relevant document
// into an earlier position never decreases DCG.
func TestDCGSwapMonotonicity(t *testing.T) {
	check := func(raw []uint8, aRaw, bRaw uint8) bool {
		labels := boundedLabels(raw)
		if len(labels) < 2 {
			return true
		}
		a := int(aRaw) % len(labels)
		b := int(bRaw) % len(labels)
		if a > b {
			a, b = b, a
		}
		if a == b || labels[a] >= labels[b] {
			return true
		}
		before := DCGAt(labels, 0)
		labels[a], labels[b] = labels[b], labels[a]
		return DCGAt(labels, 0) >= before-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestModelScoreLinearity (property): Score is linear in the feature
// vector: Score(x+y) + Score(0) == Score(x) + Score(y) up to float error.
func TestModelScoreLinearity(t *testing.T) {
	m := &LinearModel{W: []float64{0.5, -2, 3, 0.25}, B: 1.5}
	check := func(a, b int16, c, d int16) bool {
		x := []float64{float64(a) / 16, float64(b) / 16, float64(c) / 16, float64(d) / 16}
		y := []float64{float64(d) / 16, float64(c) / 16, float64(b) / 16, float64(a) / 16}
		sum := make([]float64, 4)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		lhs := m.Score(sum) + m.Score(make([]float64, 4))
		rhs := m.Score(x) + m.Score(y)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
