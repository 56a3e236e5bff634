package main

import (
	"math"
	"testing"
)

func TestCoverRate(t *testing.T) {
	all := func() []int { return []int{9, 7, 7, 7, 3, 1} }
	for _, c := range []struct {
		name string
		got  []int
		k    int
		want float64
	}{
		{"exact top-2", []int{9, 7}, 2, 1},
		{"ties at the k-th score are covered", []int{7, 7}, 2, 1},
		{"one below the k-th score", []int{9, 3}, 2, 0.5},
		{"unknown documents score 0", []int{0, 0}, 2, 0},
		{"never above 1", []int{9, 7, 7, 7}, 2, 1},
		{"k beyond the scoring documents", []int{9, 7, 7, 7, 3, 1}, 10, 1},
	} {
		got, ok := coverRate(all(), c.got, c.k)
		if !ok || got != c.want {
			t.Errorf("%s: coverRate = %v, %v, want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := coverRate(nil, []int{1}, 3); ok {
		t.Error("coverRate with no scoring document must report nothing to cover")
	}
}

func TestNDCG(t *testing.T) {
	ideal := []int{1, 2, 0, 2, 1}
	if got, ok := ndcgAt([]int{2, 2, 1, 1, 0}, ideal, 10); !ok || math.Abs(got-1) > 1e-12 {
		t.Errorf("ideal ranking scores %v, want 1", got)
	}
	// DCG = 1/log2(2) + 3/log2(3); IDCG = 3/log2(2) + 3/log2(3) + 1/log2(4) + 1/log2(5).
	want := (1 + 3/math.Log2(3)) / (3 + 3/math.Log2(3) + 0.5 + 1/math.Log2(5))
	if got, _ := ndcgAt([]int{1, 2}, ideal, 10); math.Abs(got-want) > 1e-12 {
		t.Errorf("ndcgAt = %v, want %v", got, want)
	}
	if got, _ := ndcgAt([]int{0, 0, 2}, ideal, 2); got != 0 {
		t.Errorf("relevant document below the cut scored %v, want 0", got)
	}
	if _, ok := ndcgAt([]int{0}, []int{0, 0}, 10); ok {
		t.Error("a query without relevant documents has no nDCG")
	}
}

func TestWellFormed(t *testing.T) {
	if err := wellFormed([]hit{{0, 1, 3}, {1, 1, 3}, {0, 2, 1}}); err != nil {
		t.Errorf("a valid ranking was refused: %v", err)
	}
	if wellFormed([]hit{{0, 1, 1}, {0, 2, 3}}) == nil {
		t.Error("a ranking with a rising score was accepted")
	}
	if wellFormed([]hit{{0, 1, 3}, {0, 1, 2}}) == nil {
		t.Error("a ranking with a repeated document was accepted")
	}
}
