package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewFamilyValidation(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		z, w int
		ok   bool
	}{
		{"valid polynomial", KindPolynomial, 5, 64, true},
		{"valid md5", KindMD5, 3, 128, true},
		{"zero rows", KindPolynomial, 0, 64, false},
		{"negative rows", KindPolynomial, -1, 64, false},
		{"width one", KindPolynomial, 5, 1, false},
		{"width zero", KindPolynomial, 5, 0, false},
		{"bad kind", Kind(42), 5, 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFamily(tc.kind, tc.z, tc.w, 1)
			if tc.ok && err != nil {
				t.Fatalf("NewFamily(%v,%d,%d) unexpected error: %v", tc.kind, tc.z, tc.w, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("NewFamily(%v,%d,%d) expected error, got none", tc.kind, tc.z, tc.w)
			}
			if tc.ok && (f.Z() != tc.z || f.W() != tc.w) {
				t.Fatalf("dimensions mismatch: got z=%d w=%d", f.Z(), f.W())
			}
		})
	}
}

func TestMustNewFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewFamily with invalid args should panic")
		}
	}()
	MustNewFamily(KindPolynomial, 0, 10, 1)
}

func TestDeterminism(t *testing.T) {
	for _, kind := range []Kind{KindPolynomial, KindMD5} {
		a := MustNewFamily(kind, 7, 101, 42)
		b := MustNewFamily(kind, 7, 101, 42)
		for row := 0; row < 7; row++ {
			for term := uint64(0); term < 200; term++ {
				if a.Index(row, term) != b.Index(row, term) {
					t.Fatalf("kind %v: Index not deterministic at row=%d term=%d", kind, row, term)
				}
				if a.Sign(row, term) != b.Sign(row, term) {
					t.Fatalf("kind %v: Sign not deterministic at row=%d term=%d", kind, row, term)
				}
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := MustNewFamily(KindPolynomial, 4, 1<<20, 1)
	b := MustNewFamily(KindPolynomial, 4, 1<<20, 2)
	same := 0
	const n = 1000
	for term := uint64(0); term < n; term++ {
		if a.Index(0, term) == b.Index(0, term) {
			same++
		}
	}
	if same > n/100 {
		t.Fatalf("families with different seeds collide too often: %d/%d", same, n)
	}
}

func TestIndexInRange(t *testing.T) {
	for _, kind := range []Kind{KindPolynomial, KindMD5} {
		f := MustNewFamily(kind, 5, 37, 7)
		check := func(term uint64, row uint8) bool {
			r := int(row) % f.Z()
			idx := f.Index(r, term)
			s := f.Sign(r, term)
			return idx < uint32(f.W()) && (s == 1 || s == -1)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
	}
}

// TestUniformity checks that the index hash distributes terms roughly
// uniformly over the w buckets (chi-square against a loose threshold).
func TestUniformity(t *testing.T) {
	for _, kind := range []Kind{KindPolynomial, KindMD5} {
		const w = 32
		const n = 64000
		f := MustNewFamily(kind, 1, w, 99)
		counts := make([]int, w)
		for term := uint64(0); term < n; term++ {
			counts[f.Index(0, term)]++
		}
		expected := float64(n) / w
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 31 degrees of freedom; p=0.001 critical value ~ 61.1. Allow slack.
		if chi2 > 80 {
			t.Fatalf("kind %v: chi-square too large: %f (counts %v)", kind, chi2, counts)
		}
	}
}

// TestPairwiseCollision checks Pr[h(x)=h(y)] is close to 1/w for x != y,
// the property Theorem 1 of the paper relies on.
func TestPairwiseCollision(t *testing.T) {
	const w = 64
	const trials = 4000
	f := MustNewFamily(KindPolynomial, 8, w, 5)
	sm := NewSplitMix64(77)
	collisions := 0
	total := 0
	for row := 0; row < f.Z(); row++ {
		for i := 0; i < trials; i++ {
			x := sm.Next()
			y := sm.Next()
			if x == y {
				continue
			}
			if f.Index(row, x) == f.Index(row, y) {
				collisions++
			}
			total++
		}
	}
	got := float64(collisions) / float64(total)
	want := 1.0 / w
	if math.Abs(got-want) > 0.5*want {
		t.Fatalf("pairwise collision rate %f, want ~%f", got, want)
	}
}

// TestSignBalance checks the sign hash is roughly balanced between -1/+1.
func TestSignBalance(t *testing.T) {
	f := MustNewFamily(KindPolynomial, 4, 16, 11)
	const n = 20000
	for row := 0; row < f.Z(); row++ {
		sum := 0
		for term := uint64(0); term < n; term++ {
			sum += int(f.Sign(row, term))
		}
		if math.Abs(float64(sum)) > 3*math.Sqrt(n) {
			t.Fatalf("row %d sign bias too large: %d over %d draws", row, sum, n)
		}
	}
}

func TestMulMod61(t *testing.T) {
	cases := []struct{ x, y, want uint64 }{
		{0, 0, 0},
		{1, 1, 1},
		{mersenne61 - 1, 1, mersenne61 - 1},
		{mersenne61 - 1, mersenne61 - 1, 1}, // (-1)*(-1) = 1 mod p
		{2, mersenne61 - 1, mersenne61 - 2}, // 2*(-1) = -2 mod p
		{1 << 30, 1 << 30, 1 << 60},
	}
	for _, tc := range cases {
		if got := mulMod61(tc.x, tc.y); got != tc.want {
			t.Fatalf("mulMod61(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.want)
		}
	}
}

// TestMulMod61Property cross-checks mulMod61 against big-free reference
// arithmetic using the identity on small operands.
func TestMulMod61Property(t *testing.T) {
	check := func(a, b uint32) bool {
		x, y := uint64(a), uint64(b)
		return mulMod61(x, y) == (x*y)%mersenne61
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeed(t *testing.T) {
	s1 := DeriveSeed([]byte("shared-secret"), "sketch-hash")
	s2 := DeriveSeed([]byte("shared-secret"), "sketch-hash")
	s3 := DeriveSeed([]byte("shared-secret"), "other-label")
	s4 := DeriveSeed([]byte("other-secret"), "sketch-hash")
	if s1 != s2 {
		t.Fatal("DeriveSeed not deterministic")
	}
	if s1 == s3 {
		t.Fatal("DeriveSeed ignores label")
	}
	if s1 == s4 {
		t.Fatal("DeriveSeed ignores secret")
	}
}

func TestKindString(t *testing.T) {
	if KindPolynomial.String() != "polynomial" || KindMD5.String() != "md5" {
		t.Fatal("unexpected Kind string values")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestSplitMix64Sequence(t *testing.T) {
	a := NewSplitMix64(123)
	b := NewSplitMix64(123)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		va, vb := a.Next(), b.Next()
		if va != vb {
			t.Fatal("SplitMix64 not deterministic")
		}
		if seen[va] {
			t.Fatalf("SplitMix64 repeated value within 1000 draws: %d", va)
		}
		seen[va] = true
	}
}

func BenchmarkIndexPolynomial(b *testing.B) {
	f := MustNewFamily(KindPolynomial, 30, 200, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Index(i%30, uint64(i))
	}
}

func BenchmarkIndexMD5(b *testing.B) {
	f := MustNewFamily(KindMD5, 30, 200, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Index(i%30, uint64(i))
	}
}

// TestIndexSignMatches: the one-call evaluation of a row is Index and
// Sign, for both constructions.
func TestIndexSignMatches(t *testing.T) {
	for _, k := range []Kind{KindPolynomial, KindMD5} {
		f := MustNewFamily(k, 7, 203, 11)
		for row := 0; row < f.Z(); row++ {
			for _, term := range []uint64{0, 1, 2, 99, mersenne61 - 1, mersenne61, mersenne61 + 5, 1 << 63, ^uint64(0)} {
				col, sign := f.IndexSign(row, term)
				if col != f.Index(row, term) || sign != f.Sign(row, term) {
					t.Fatalf("%v row %d term %d: IndexSign = (%d, %d), Index, Sign = (%d, %d)",
						k, row, term, col, sign, f.Index(row, term), f.Sign(row, term))
				}
			}
		}
	}
}
