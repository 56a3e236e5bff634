package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"csfltr/internal/hashutil"
)

// refMedian is the specification: sort a copy, average the two central
// values for even length.
func refMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

func TestMedianInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Sweep sizes across the insertion-sort/quickselect threshold, with
	// shapes that historically break selection algorithms: random,
	// sorted, reversed, heavy duplicates, all-equal.
	for n := 0; n <= 60; n++ {
		for shape := 0; shape < 5; shape++ {
			xs := make([]float64, n)
			for i := range xs {
				switch shape {
				case 0:
					xs[i] = rng.NormFloat64() * 100
				case 1:
					xs[i] = float64(i)
				case 2:
					xs[i] = float64(n - i)
				case 3:
					xs[i] = float64(rng.Intn(3))
				case 4:
					xs[i] = 7
				}
			}
			want := refMedian(xs)
			if got := Median(xs); got != want {
				t.Fatalf("Median(n=%d shape=%d) = %v, want %v", n, shape, got, want)
			}
			scratch := append([]float64(nil), xs...)
			if got := MedianInPlace(scratch); got != want {
				t.Fatalf("MedianInPlace(n=%d shape=%d) = %v, want %v", n, shape, got, want)
			}
		}
	}
}

func TestMedianDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), xs...)
	Median(xs)
	if !reflect.DeepEqual(xs, orig) {
		t.Fatal("Median reordered its input")
	}
}

// TestEstimateSignedMatchesEstimateFromRows: precomputing the sign hashes
// must not change a single bit of the estimate, for either sketch kind,
// odd and even row counts, zeros, infinities and NaNs included.
func TestEstimateSignedMatchesEstimateFromRows(t *testing.T) {
	fam, err := hashutil.NewFamily(hashutil.KindPolynomial, 40, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		term := rng.Uint64()
		rows := rng.Perm(40)[:rng.Intn(41)]
		sort.Ints(rows)
		values := make([]float64, len(rows))
		signs := make([]float64, len(rows))
		for i, a := range rows {
			values[i] = math.Round(rng.NormFloat64()*20) + rng.Float64()
			if rng.Intn(8) == 0 {
				values[i] = special[rng.Intn(len(special))]
			}
			signs[i] = float64(fam.Sign(a, term))
		}
		for _, kind := range []Kind{Count, CountMin} {
			want := EstimateFromRows(kind, fam, term, rows, values)
			got := EstimateSigned(kind, signs, append([]float64(nil), values...))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d kind %v rows %v values %v: EstimateSigned %v, EstimateFromRows %v",
					trial, kind, rows, values, got, want)
			}
		}
	}
	if EstimateSigned(Count, []float64{1}, []float64{1, 2}) != 0 {
		t.Fatal("mismatched lengths must estimate 0, like EstimateFromRows")
	}
}

func BenchmarkMedianInPlace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{9, 31, 101} {
		xs := make([]float64, n)
		scratch := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(scratch, xs)
				MedianInPlace(scratch)
			}
		})
	}
}

func BenchmarkEstimateFromRows(b *testing.B) {
	fam, err := hashutil.NewFamily(hashutil.KindPolynomial, 30, 2000, 42)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, 10)
	values := make([]float64, 10)
	rng := rand.New(rand.NewSource(2))
	for i := range rows {
		rows[i] = 3 * i
		values[i] = rng.NormFloat64() * 50
	}
	for _, kind := range []Kind{Count, CountMin} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				EstimateFromRows(kind, fam, 99, rows, values)
			}
		})
	}
}
