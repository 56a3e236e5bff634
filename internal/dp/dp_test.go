package dp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestNewLaplaceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name        string
		eps, sens   float64
		rng         *rand.Rand
		wantErrType error
	}{
		{"ok", 0.5, 1, rng, nil},
		{"zero eps", 0, 1, rng, ErrBadEpsilon},
		{"negative eps", -1, 1, rng, ErrBadEpsilon},
		{"nan eps", math.NaN(), 1, rng, ErrBadEpsilon},
		{"inf eps", math.Inf(1), 1, rng, ErrBadEpsilon},
		{"zero sensitivity", 1, 0, rng, ErrBadSensitivity},
		{"negative sensitivity", 1, -2, rng, ErrBadSensitivity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLaplace(tc.eps, tc.sens, tc.rng)
			if tc.wantErrType == nil && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.wantErrType != nil && !errors.Is(err, tc.wantErrType) {
				t.Fatalf("want %v, got %v", tc.wantErrType, err)
			}
		})
	}
	if _, err := NewLaplace(1, 1, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
}

func TestLaplaceScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l, err := NewLaplace(0.5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if l.Scale() != 2 {
		t.Fatalf("scale = %v, want 2 (sensitivity/epsilon)", l.Scale())
	}
	if l.Epsilon() != 0.5 {
		t.Fatalf("epsilon = %v, want 0.5", l.Epsilon())
	}
}

// TestLaplaceMoments checks the empirical mean and variance of the sampler
// against the analytic values E=0, Var=2b^2.
func TestLaplaceMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const b = 2.0
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := SampleLaplace(rng, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("empirical mean %f too far from 0", mean)
	}
	want := 2 * b * b
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("empirical variance %f, want ~%f", variance, want)
	}
}

// TestLaplaceTailShape checks Pr[|X| > b*ln 2] ~ 1/2 (the Laplace median
// of |X| is b*ln 2), pinning the inverse-CDF sampler to the right
// distribution rather than just the right moments.
func TestLaplaceTailShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const b = 1.5
	const n = 100000
	above := 0
	threshold := b * math.Ln2
	for i := 0; i < n; i++ {
		if math.Abs(SampleLaplace(rng, b)) > threshold {
			above++
		}
	}
	p := float64(above) / n
	if math.Abs(p-0.5) > 0.01 {
		t.Fatalf("Pr[|X|>b ln2] = %f, want ~0.5", p)
	}
}

func TestLaplacePerturb(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l, _ := NewLaplace(1, 1, rng)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += 10 + l.Sample()
	}
	if math.Abs(sum/n-10) > 0.05 {
		t.Fatalf("10 + Sample() mean %f, want ~10", sum/n)
	}
}

// TestLaplaceDPRatio statistically verifies the core ε-DP inequality for a
// sensitivity-1 query: the histogram ratio of 0 + Sample() vs 1 + Sample()
// should never exceed e^ε by a wide margin.
func TestLaplaceDPRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	eps := 0.8
	l, _ := NewLaplace(eps, 1, rng)
	const n = 400000
	const bins = 40
	const lo, hi = -5.0, 6.0
	h0 := make([]float64, bins)
	h1 := make([]float64, bins)
	binOf := func(x float64) int {
		b := int((x - lo) / (hi - lo) * bins)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		return b
	}
	for i := 0; i < n; i++ {
		h0[binOf(0+l.Sample())]++
		h1[binOf(1+l.Sample())]++
	}
	bound := math.Exp(eps) * 1.25 // sampling slack
	for i := 0; i < bins; i++ {
		if h0[i] < 200 || h1[i] < 200 {
			continue // skip bins with too little mass for a stable ratio
		}
		r := h0[i] / h1[i]
		if r < 1 {
			r = 1 / r
		}
		if r > bound {
			t.Fatalf("bin %d: probability ratio %f exceeds e^eps=%f", i, r, math.Exp(eps))
		}
	}
}

func TestGeometricMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eps := 1.0
	g, err := NewGeometric(eps, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Sample()
		if x != math.Trunc(x) {
			t.Fatalf("geometric sample %v is not an integer", x)
		}
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("geometric mean %f, want ~0", mean)
	}
	// Var = 2*alpha/(1-alpha)^2 for alpha = e^{-eps}.
	alpha := math.Exp(-eps)
	want := 2 * alpha / ((1 - alpha) * (1 - alpha))
	if math.Abs(variance-want)/want > 0.05 {
		t.Fatalf("geometric variance %f, want ~%f", variance, want)
	}
}

func TestGeometricValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGeometric(0, 1, rng); !errors.Is(err, ErrBadEpsilon) {
		t.Fatal("zero epsilon should be rejected")
	}
	if _, err := NewGeometric(1, 0, rng); !errors.Is(err, ErrBadSensitivity) {
		t.Fatal("zero sensitivity should be rejected")
	}
	if _, err := NewGeometric(1, 1, nil); err == nil {
		t.Fatal("nil rng should be rejected")
	}
}

func TestDisabled(t *testing.T) {
	m := Disabled()
	if 3.5+m.Sample() != 3.5 || m.Sample() != 0 || m.Epsilon() != 0 {
		t.Fatal("Disabled mechanism must be a no-op")
	}
}

func TestForEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := ForEpsilon(0, rng)
	if err != nil || m.Epsilon() != 0 {
		t.Fatalf("eps=0 should give Disabled, got %v %v", m, err)
	}
	m, err = ForEpsilon(0.5, rng)
	if err != nil || m.Epsilon() != 0.5 {
		t.Fatalf("eps=0.5 should give Laplace(0.5), got %v %v", m, err)
	}
	if _, err := ForEpsilon(-1, rng); err == nil {
		t.Fatal("negative epsilon should error")
	}
}

func TestAccountant(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Spend("partyB", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("partyB", 0.4); err != nil {
		t.Fatal(err)
	}
	if got := a.Spent("partyB"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("spent = %v, want 0.8", got)
	}
	if got := a.Remaining("partyB"); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("remaining = %v, want 0.2", got)
	}
	if err := a.Spend("partyB", 0.4); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected ErrBudgetExceeded, got %v", err)
	}
	// Refused spends must not be recorded.
	if got := a.Spent("partyB"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("failed spend was recorded: %v", got)
	}
	// Other peers are independent.
	if err := a.Spend("partyC", 0.9); err != nil {
		t.Fatal(err)
	}
	if l := a.Ledger(); len(l) != 2 || l[0].Peer != "partyB" || l[1].Peer != "partyC" {
		t.Fatalf("ledger = %+v", l)
	}
	if err := a.Spend("partyC", -0.1); !errors.Is(err, ErrBadEpsilon) {
		t.Fatal("negative spend should be rejected")
	}
}

func TestAccountantUnlimited(t *testing.T) {
	a := NewAccountant(0)
	for i := 0; i < 100; i++ {
		if err := a.Spend("p", 10); err != nil {
			t.Fatal(err)
		}
	}
	if !math.IsInf(a.Remaining("p"), 1) {
		t.Fatal("unlimited accountant should report +Inf remaining")
	}
	if a.Spent("p") != 1000 {
		t.Fatalf("spent = %v, want 1000", a.Spent("p"))
	}
}

func TestAccountantConcurrent(t *testing.T) {
	a := NewAccountant(0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				_ = a.Spend("p", 0.001)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if math.Abs(a.Spent("p")-8.0) > 1e-9 {
		t.Fatalf("concurrent spends lost updates: %v", a.Spent("p"))
	}
}

// TestAccountantLedger: the ledger lists every peer spent against or
// replayed from, sorted, with its spend and its zero-spend replays.
func TestAccountantLedger(t *testing.T) {
	a := NewAccountant(1)
	if l := a.Ledger(); len(l) != 0 {
		t.Fatalf("fresh ledger = %+v", l)
	}
	for _, spend := range []struct {
		peer string
		eps  float64
	}{{"C", 0.25}, {"A", 0.5}, {"C", 0.25}} {
		if err := a.Spend(spend.peer, spend.eps); err != nil {
			t.Fatal(err)
		}
	}
	a.Replayed("C")
	a.Replayed("B") // replayed, never spent against
	a.Replayed("C")
	want := []PeerSpend{{"A", 0.5, 0}, {"B", 0, 1}, {"C", 0.5, 2}}
	if got := a.Ledger(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger = %+v, want %+v", got, want)
	}
	// A replay spends nothing: the whole budget is still there.
	if got := a.Remaining("B"); got != 1 {
		t.Fatalf("Remaining(B) = %v after replays only, want 1", got)
	}
}

func BenchmarkSampleLaplace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SampleLaplace(rng, 2)
	}
}
