package secagg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csfltr/internal/keyex"
)

// testSecrets builds a deterministic pairwise secret matrix without the
// DH ceremony: secret(i,j) = SHA-256-ish bytes derived from the pair.
// Cheap and stable, which is what the golden tests need.
func testSecrets(n int) [][][]byte {
	secrets := make([][][]byte, n)
	for i := range secrets {
		secrets[i] = make([][]byte, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := make([]byte, 32)
			for k := range s {
				s[k] = byte(17*i + 31*j + 7*k + 3)
			}
			secrets[i][j] = s
			secrets[j][i] = s
		}
	}
	return secrets
}

func maskers(t *testing.T, secrets [][][]byte) []*Masker {
	t.Helper()
	out := make([]*Masker, len(secrets))
	for i := range secrets {
		m, err := NewMasker(i, secrets[i])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scale: 0, Clip: 1},
		{Scale: -1, Clip: 1},
		{Scale: math.Inf(1), Clip: 1},
		{Scale: 1, Clip: 0},
		{Scale: 1, Clip: math.NaN()},
		{Scale: 1 << 40, Clip: 1 << 40}, // overflows the ring headroom
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: config %+v should be rejected", i, c)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(11))
	u := make(RawUpdate, 64)
	for i := range u {
		u[i] = rng.NormFloat64() * 3
	}
	q := Quantize(u, cfg)
	back := Dequantize(q, cfg, 1)
	bound := cfg.ErrorBound(1)
	for i := range u {
		if diff := math.Abs(back[i] - u[i]); diff > bound {
			t.Fatalf("weight %d: error %g exceeds bound %g", i, diff, bound)
		}
	}
}

func TestQuantizeClipsAndSanitizesNaN(t *testing.T) {
	cfg := Config{Scale: 1 << 10, Clip: 4}
	q := Quantize(RawUpdate{1e9, -1e9, math.NaN(), 0.5}, cfg)
	back := Dequantize(q, cfg, 1)
	if back[0] != 4 || back[1] != -4 {
		t.Fatalf("clip failed: %v", back[:2])
	}
	if back[2] != 0 {
		t.Fatalf("NaN should quantize to 0, got %v", back[2])
	}
	if back[3] != 0.5 {
		t.Fatalf("0.5 should round-trip exactly at power-of-two scale, got %v", back[3])
	}
}

func TestRoundSeedDomainSeparation(t *testing.T) {
	secret := []byte("0123456789abcdef0123456789abcdef")
	a := RoundSeed(secret, 1)
	if a != RoundSeed(secret, 1) {
		t.Fatal("RoundSeed is not deterministic")
	}
	if a == RoundSeed(secret, 2) {
		t.Fatal("different rounds must yield different seeds")
	}
	other := []byte("fedcba9876543210fedcba9876543210")
	if a == RoundSeed(other, 1) {
		t.Fatal("different secrets must yield different seeds")
	}
}

// TestMaskCancellationExact is the core ring property: summing every
// active party's masked vector gives bit-for-bit the sum of the
// quantized updates, with no tolerance.
func TestMaskCancellationExact(t *testing.T) {
	const n, dim = 5, 33
	cfg := DefaultConfig()
	ms := maskers(t, testSecrets(n))
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	rng := rand.New(rand.NewSource(7))
	want := make([]uint64, dim)
	agg, err := NewAggregator(dim, active)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		u := make(RawUpdate, dim)
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		q := Quantize(u, cfg)
		for k, v := range q {
			want[k] += v
		}
		masked, err := ms[i].Mask(42, q, active)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(i, masked); err != nil {
			t.Fatal(err)
		}
	}
	got, count, err := agg.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ring sum differs at %d: got %#x want %#x", k, got[k], want[k])
		}
	}
}

// TestGoldenMaskCancellation pins the exact masked values of a tiny
// fixed instance so any change to seed derivation, stream expansion or
// sign convention is caught as a golden mismatch, not just as a
// property failure.
func TestGoldenMaskCancellation(t *testing.T) {
	const n, dim = 3, 4
	ms := maskers(t, testSecrets(n))
	active := []bool{true, true, true}
	q := [][]uint64{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{100, 200, 300, 400},
	}
	var masked [][]uint64
	for i := 0; i < n; i++ {
		v, err := ms[i].Mask(9, q[i], active)
		if err != nil {
			t.Fatal(err)
		}
		masked = append(masked, v)
	}
	golden := [][]uint64{
		{0x9a01725fb7d71163, 0x9cfe3bbe1a67a58b, 0x3ef85bbfa49a29d0, 0xd141580cd757d562},
		{0xd5182362f707d350, 0x684dfeac7a39c0ce, 0x47a2720caf6a184f, 0x1f52eb240651f65e},
		{0x90e66a3d51211bbc, 0xfab3c5956b5e9a85, 0x79653233abfbbf2e, 0xf6bbccf225635fc},
	}
	for i := range masked {
		for k := range masked[i] {
			if masked[i][k] != golden[i][k] {
				t.Fatalf("party %d word %d: got %#x, want golden %#x\nfull: %#x",
					i, k, masked[i][k], golden[i][k], masked)
			}
		}
	}
	// And the golden vectors still cancel to the plaintext sum.
	for k := 0; k < dim; k++ {
		var sum uint64
		for i := range masked {
			sum += masked[i][k]
		}
		want := q[0][k] + q[1][k] + q[2][k]
		if sum != want {
			t.Fatalf("word %d: golden sum %#x, want %#x", k, sum, want)
		}
	}
}

// TestMaskedVectorLooksUniform sanity-checks that a masked submission
// is keystream-noise-like: over many words, bits are balanced. This is
// the testable shadow of "server-visible payload is indistinguishable
// from noise".
func TestMaskedVectorLooksUniform(t *testing.T) {
	const n, dim = 2, 4096
	ms := maskers(t, testSecrets(n))
	active := []bool{true, true}
	q := make([]uint64, dim) // all-zero plaintext: output is pure mask
	masked, err := ms[0].Mask(1, q, active)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, w := range masked {
		for b := 0; b < 64; b++ {
			ones += int(w >> b & 1)
		}
	}
	total := 64 * dim
	// Binomial(262144, 0.5): mean 131072, sd 256. 6 sigma ≈ 1536.
	if d := ones - total/2; d < -1536 || d > 1536 {
		t.Fatalf("bit balance off: %d ones of %d", ones, total)
	}
	// The same zero plaintext under a different round must produce a
	// different mask stream.
	again, err := ms[0].Mask(2, q, active)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for k := range masked {
		if masked[k] == again[k] {
			same++
		}
	}
	if same > dim/64 {
		t.Fatalf("rounds 1 and 2 share %d of %d mask words", same, dim)
	}
}

// TestDropoutRecovery drops one party after the others already masked
// against it, recovers via seed reveals and checks the exact sum of the
// survivors' updates comes out.
func TestDropoutRecovery(t *testing.T) {
	const n, dim, round = 4, 17, 5
	cfg := DefaultConfig()
	ms := maskers(t, testSecrets(n))
	active := []bool{true, true, true, true}
	const dropped = 2

	rng := rand.New(rand.NewSource(3))
	want := make([]uint64, dim)
	agg, err := NewAggregator(dim, active)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == dropped {
			continue // masked against everyone, but the vector never arrives
		}
		u := make(RawUpdate, dim)
		for k := range u {
			u[k] = rng.NormFloat64()
		}
		q := Quantize(u, cfg)
		for k, v := range q {
			want[k] += v
		}
		masked, err := ms[i].Mask(round, q, active)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(i, masked); err != nil {
			t.Fatal(err)
		}
	}
	// Sum must refuse while the dropped party is unresolved.
	if _, _, err := agg.Sum(); err == nil {
		t.Fatal("Sum should fail with an outstanding party")
	}
	// Survivors reveal their pairwise round seeds with the dropped party.
	reveals := map[int]Seed{}
	for i := 0; i < n; i++ {
		if i == dropped {
			continue
		}
		s, err := ms[i].Reveal(round, dropped)
		if err != nil {
			t.Fatal(err)
		}
		reveals[i] = s
	}
	// Recovery with a missing reveal must fail before mutating anything.
	short := map[int]Seed{0: reveals[0]}
	if err := agg.RemoveDropped(dropped, short); err == nil {
		t.Fatal("RemoveDropped should require a reveal from every submitter")
	}
	if err := agg.RemoveDropped(dropped, reveals); err != nil {
		t.Fatal(err)
	}
	got, count, err := agg.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if count != n-1 {
		t.Fatalf("count = %d, want %d", count, n-1)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("recovered sum differs at %d: got %#x want %#x", k, got[k], want[k])
		}
	}
	// A second removal of the same party must fail (it is inactive now).
	if err := agg.RemoveDropped(dropped, reveals); err == nil {
		t.Fatal("double removal should fail")
	}
}

func TestAggregatorGuards(t *testing.T) {
	active := []bool{true, false, true}
	agg, err := NewAggregator(2, active)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(1, []uint64{1, 2}); err == nil {
		t.Fatal("inactive party accepted")
	}
	if err := agg.Add(5, []uint64{1, 2}); err == nil {
		t.Fatal("out-of-range party accepted")
	}
	if err := agg.Add(0, []uint64{1}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	if err := agg.Add(0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(0, []uint64{1, 2}); err == nil {
		t.Fatal("duplicate submission accepted")
	}
	if err := agg.RemoveDropped(0, nil); err == nil {
		t.Fatal("unmasking a submitted party should be refused")
	}
	if _, err := NewAggregator(0, active); err == nil {
		t.Fatal("zero dimension accepted")
	}
	if _, err := NewAggregator(2, []bool{false, false}); err == nil {
		t.Fatal("empty roster accepted")
	}
}

// TestAggregatorSubmitted: only an accepted submission marks its party;
// a refused one and an id off the roster never do.
func TestAggregatorSubmitted(t *testing.T) {
	agg, err := NewAggregator(2, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	_ = agg.Add(1, []uint64{1, 2}) // inactive: refused
	_ = agg.Add(2, []uint64{1})    // wrong dimension: refused
	if err := agg.Add(0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	for party, want := range map[int]bool{-1: false, 0: true, 1: false, 2: false, 3: false} {
		if got := agg.Submitted(party); got != want {
			t.Fatalf("Submitted(%d) = %v, want %v", party, got, want)
		}
	}
}

func TestMaskerGuards(t *testing.T) {
	secrets := testSecrets(3)
	if _, err := NewMasker(-1, secrets[0]); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := NewMasker(3, secrets[0]); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	hole := [][]byte{nil, nil, {1}}
	if _, err := NewMasker(0, hole); err == nil {
		t.Fatal("missing pairwise secret accepted")
	}
	m, err := NewMasker(0, secrets[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mask(1, []uint64{1}, []bool{true}); err == nil {
		t.Fatal("roster size mismatch accepted")
	}
	if _, err := m.Mask(1, []uint64{1}, []bool{false, true, true}); err == nil {
		t.Fatal("masking while inactive accepted")
	}
	if _, err := m.Reveal(1, 0); err == nil {
		t.Fatal("revealing own seed accepted")
	}
	if _, err := m.Reveal(1, 9); err == nil {
		t.Fatal("out-of-range reveal accepted")
	}
}

// TestKeyexIntegration runs the mask-cancellation property over real
// DH-derived pairwise secrets from the seeded keyex ceremony.
func TestKeyexIntegration(t *testing.T) {
	const n, dim = 3, 8
	secrets, err := keyex.AgreePairwise(n, keyex.SeededEntropy(99))
	if err != nil {
		t.Fatal(err)
	}
	ms := maskers(t, secrets)
	active := []bool{true, true, true}
	cfg := DefaultConfig()
	agg, err := NewAggregator(dim, active)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, dim)
	for i := 0; i < n; i++ {
		u := make(RawUpdate, dim)
		for k := range u {
			u[k] = float64(i*dim+k) / 16
		}
		q := Quantize(u, cfg)
		for k, v := range q {
			want[k] += v
		}
		masked, err := ms[i].Mask(0, q, active)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(i, masked); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := agg.Sum()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("ring sum differs at %d", k)
		}
	}
}

func BenchmarkMask(b *testing.B) {
	for _, dim := range []int{64, 1024} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			ms := make([]*Masker, 4)
			secrets := testSecrets(4)
			for i := range ms {
				m, err := NewMasker(i, secrets[i])
				if err != nil {
					b.Fatal(err)
				}
				ms[i] = m
			}
			active := []bool{true, true, true, true}
			q := make([]uint64, dim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ms[0].Mask(uint64(i), q, active); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
