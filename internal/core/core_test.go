package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"csfltr/internal/dp"
	"csfltr/internal/sketch"
	"csfltr/internal/zipf"
)

// testParams returns small, collision-light parameters for exactness
// tests.
func testParams() Params {
	p := DefaultParams()
	p.W = 1024
	p.Z = 9
	p.Z1 = 5
	p.Epsilon = 0 // DP off unless a test opts in
	p.K = 10
	return p
}

func newPair(t testing.TB, p Params, mech dp.Mechanism) (*Querier, *Owner) {
	t.Helper()
	const seed = 42
	q, err := NewQuerier(p, seed, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if mech == nil {
		mech = dp.Disabled()
	}
	o, err := NewOwner(p, seed, mech)
	if err != nil {
		t.Fatal(err)
	}
	return q, o
}

// TestParamsWorkers: Parallelism resolves to a worker count clamped to
// [1, n], with 0 standing for GOMAXPROCS.
func TestParamsWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		parallelism, n, want int
	}{
		{3, 10, 3},
		{3, 2, 2},
		{3, 0, 1},
		{-1, 1 << 20, procs},
		{0, 1, 1},
	} {
		t.Run(fmt.Sprintf("parallelism=%d/n=%d", tc.parallelism, tc.n), func(t *testing.T) {
			p := DefaultParams()
			p.Parallelism = tc.parallelism
			if got := p.Workers(tc.n); got != tc.want {
				t.Fatalf("Workers(%d) = %d, want %d", tc.n, got, tc.want)
			}
		})
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Z = 0 },
		func(p *Params) { p.W = 1 },
		func(p *Params) { p.Z1 = 0 },
		func(p *Params) { p.Z1 = p.Z + 1 },
		func(p *Params) { p.Epsilon = -0.5 },
		func(p *Params) { p.Alpha = 0 },
		func(p *Params) { p.Beta = 0 },
		func(p *Params) { p.Beta = 1.5 },
		func(p *Params) { p.K = 0 },
	}
	for i, mut := range mutations {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Fatalf("mutation %d: expected ErrBadParams, got %v", i, err)
		}
	}
	if DefaultParams().HeapCap() != 750 {
		t.Fatalf("default heap cap = %d, want 750", DefaultParams().HeapCap())
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{Messages: 1, BytesSent: 10, BytesReceived: 20, SketchLookups: 3}
	a.Add(Cost{Messages: 2, BytesSent: 5, BytesReceived: 7, SketchLookups: 4})
	if a.Messages != 3 || a.BytesSent != 15 || a.BytesReceived != 27 || a.SketchLookups != 7 {
		t.Fatalf("Cost.Add wrong: %+v", a)
	}
}

func TestBuildQueryObfuscation(t *testing.T) {
	p := testParams()
	q, _ := newPair(t, p, nil)
	term := uint64(12345)
	query, priv := q.BuildQuery(term)
	if len(query.Cols) != p.Z {
		t.Fatalf("query has %d cols", len(query.Cols))
	}
	if len(priv.PV) != p.Z1 {
		t.Fatalf("PV has %d rows, want %d", len(priv.PV), p.Z1)
	}
	for i := 1; i < len(priv.PV); i++ {
		if priv.PV[i] <= priv.PV[i-1] {
			t.Fatal("PV must be sorted and unique")
		}
	}
	// Real rows carry the real hash.
	for _, a := range priv.PV {
		if query.Cols[a] != q.Family().Index(a, term) {
			t.Fatalf("row %d: real column mismatch", a)
		}
	}
	// PV differs across queries (it is a fresh random permutation).
	differs := false
	for trial := 0; trial < 20; trial++ {
		_, priv2 := q.BuildQuery(term)
		for i := range priv2.PV {
			if priv2.PV[i] != priv.PV[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("PV never changed across 20 queries")
	}
	if query.WireSize() != int64(4*p.Z) {
		t.Fatalf("wire size = %d", query.WireSize())
	}
}

// TestBuildQueryMatchesPerm: BuildQuery draws its permutation into
// scratch the querier keeps, and must consume its rng exactly as the
// rand.Perm it replaces did — every later draw, plan and digest hangs on
// that. A twin rng replays the old construction over 10 000 terms, Plan
// and BuildQuery alternating since they share the path, with a Recover
// in between to show its scratch is its own.
func TestBuildQueryMatchesPerm(t *testing.T) {
	p := testParams()
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	twin := rand.New(rand.NewSource(11))
	for i := 0; i < 10000; i++ {
		term := uint64(i * 7919)
		var query *TFQuery
		var priv *TFPrivate
		if i%2 == 0 {
			query, priv = q.BuildQuery(term)
		} else {
			plan := q.Plan(term)
			query, priv = plan.Query(), &plan.priv
		}
		pv := twin.Perm(p.Z)[:p.Z1]
		sort.Ints(pv)
		if !slices.Equal(priv.PV, pv) {
			t.Fatalf("term %d: PV %v, rand.Perm gives %v", i, priv.PV, pv)
		}
		for a, col := range query.Cols {
			want := q.fam.Index(a, term)
			if _, real := slices.BinarySearch(pv, a); !real {
				want = q.fam.Index(a, twin.Uint64())
			}
			if col != want {
				t.Fatalf("term %d row %d: column %d, want %d", i, a, col, want)
			}
		}
		if _, err := q.Recover(priv, &TFResponse{Values: make([]float64, p.Z)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTFRoundTripExact(t *testing.T) {
	for _, kind := range []sketch.Kind{sketch.Count, sketch.CountMin} {
		p := testParams()
		p.SketchKind = kind
		q, o := newPair(t, p, nil)
		counts := map[uint64]int64{100: 7, 200: 3, 300: 12}
		if err := o.AddDocument(0, counts); err != nil {
			t.Fatal(err)
		}
		for term, want := range counts {
			query, priv := q.BuildQuery(term)
			resp, err := o.AnswerTF(0, query)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Recover(priv, resp)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-float64(want)) > 1e-9 {
				t.Fatalf("kind %v: TF(%d) = %v, want %d", kind, term, got, want)
			}
		}
		// Absent term: zero.
		query, priv := q.BuildQuery(999)
		resp, _ := o.AnswerTF(0, query)
		got, _ := q.Recover(priv, resp)
		if got != 0 {
			t.Fatalf("kind %v: absent term estimated %v", kind, got)
		}
	}
}

func TestTFWithDPNoiseUnbiased(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	rng := rand.New(rand.NewSource(3))
	mech, err := dp.ForEpsilon(p.Epsilon, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, o := newPair(t, p, mech)
	if err := o.AddDocument(0, map[uint64]int64{55: 20}); err != nil {
		t.Fatal(err)
	}
	var sum float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		query, priv := q.BuildQuery(55)
		resp, err := o.AnswerTF(0, query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Recover(priv, resp)
		if err != nil {
			t.Fatal(err)
		}
		sum += got
	}
	mean := sum / trials
	if math.Abs(mean-20) > 1.0 {
		t.Fatalf("noisy TF mean %v, want ~20", mean)
	}
}

// TestTheorem3Bound checks Section IV-C's multi-term error bound
// empirically over released TF answers: with every row private (z1 = z),
// one TF answer per query term, the per-row sums of the sign-corrected
// values and their median across rows, |f_q_hat - f_q| should stay
// within sqrt(16 l / eps^2 + 64 l / w * F2Res) with high probability.
func TestTheorem3Bound(t *testing.T) {
	p := testParams()
	p.W = 256
	p.Z = 15
	p.Z1 = 15
	p.Epsilon = 1.0
	rng := rand.New(rand.NewSource(21))
	mech, err := dp.ForEpsilon(p.Epsilon, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOwner(p, 42, mech)
	if err != nil {
		t.Fatal(err)
	}
	dist := zipf.MustNew(2000, 1.1)
	counts := make(map[uint64]int64)
	for i := 0; i < 5000; i++ {
		counts[uint64(dist.Sample(rng))]++
	}
	if err := o.AddDocument(0, counts); err != nil {
		t.Fatal(err)
	}
	var freqs []float64
	for _, c := range counts {
		freqs = append(freqs, float64(c))
	}
	f2res := zipf.ResidualF2(freqs, p.W/8)

	terms := []uint64{1, 2, 3, 5}
	var truth float64
	for _, tm := range terms {
		truth += float64(counts[tm])
	}
	l := float64(len(terms))
	bound := math.Sqrt(16*l/(p.Epsilon*p.Epsilon) + 64*l/float64(p.W)*f2res)

	violations := 0
	const trials = 200
	rowSums := make([]float64, p.Z)
	for i := 0; i < trials; i++ {
		clear(rowSums)
		for _, tm := range terms {
			query, _ := q.BuildQuery(tm)
			resp, err := o.AnswerTF(0, query)
			if err != nil {
				t.Fatal(err)
			}
			for a, v := range resp.Values {
				rowSums[a] += v * float64(q.Family().Sign(a, tm))
			}
		}
		if got := sketch.MedianInPlace(rowSums); math.Abs(got-truth) > bound {
			violations++
		}
	}
	if frac := float64(violations) / trials; frac > 0.05 {
		t.Fatalf("Theorem 3 bound violated in %.0f%% of trials (bound %.1f, truth %.0f)",
			frac*100, bound, truth)
	}
}

func TestAnswerTFErrors(t *testing.T) {
	p := testParams()
	q, o := newPair(t, p, nil)
	if err := o.AddDocument(0, map[uint64]int64{1: 1}); err != nil {
		t.Fatal(err)
	}
	query, _ := q.BuildQuery(1)
	if _, err := o.AnswerTF(99, query); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("unknown doc: %v", err)
	}
	if _, err := o.AnswerTF(0, &TFQuery{Cols: query.Cols[:2]}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("short query: %v", err)
	}
	if _, err := o.AnswerTF(0, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("nil query: %v", err)
	}
	// Owner without doc tables refuses TF.
	o2, err := NewOwner(p, 42, dp.Disabled(), WithoutDocTables())
	if err != nil {
		t.Fatal(err)
	}
	if err := o2.AddDocument(0, map[uint64]int64{1: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := o2.AnswerTF(0, query); !errors.Is(err, ErrNoSketches) {
		t.Fatalf("expected ErrNoSketches, got %v", err)
	}
}

func TestRecoverErrors(t *testing.T) {
	p := testParams()
	q, _ := newPair(t, p, nil)
	_, priv := q.BuildQuery(1)
	if _, err := q.Recover(priv, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatal("nil response should error")
	}
	if _, err := q.Recover(priv, &TFResponse{Values: []float64{1}}); !errors.Is(err, ErrBadQuery) {
		t.Fatal("short response should error")
	}
}

func TestOwnerDocManagement(t *testing.T) {
	p := testParams()
	_, o := newPair(t, p, nil)
	if err := o.AddDocument(5, map[uint64]int64{1: 2, 2: 3}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocument(5, map[uint64]int64{1: 2}); err == nil {
		t.Fatal("duplicate id should error")
	}
	if err := o.AddDocument(3, map[uint64]int64{9: 1}); err != nil {
		t.Fatal(err)
	}
	ids := o.DocIDs()
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 5 {
		t.Fatalf("DocIDs = %v", ids)
	}
	length, unique, err := o.DocMeta(5)
	if err != nil || length != 5 || unique != 2 {
		t.Fatalf("DocMeta(5) = %d,%d,%v", length, unique, err)
	}
	if _, _, err := o.DocMeta(99); !errors.Is(err, ErrUnknownDoc) {
		t.Fatal("DocMeta of unknown doc should error")
	}
	if err := o.RemoveDocument(5); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveDocument(5); !errors.Is(err, ErrUnknownDoc) {
		t.Fatal("double remove should error")
	}
	if got := o.DocIDs(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("DocIDs after removal = %v", got)
	}
}

func TestRTKSketchCapInvariant(t *testing.T) {
	p := testParams()
	p.Alpha = 2
	p.K = 3 // cap = 6
	_, o := newPair(t, p, nil)
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 50; id++ {
		counts := map[uint64]int64{}
		for j := 0; j < 20; j++ {
			counts[uint64(rng.Intn(100))]++
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	if load := o.RTK().MaxCellLoad(); load > p.HeapCap() {
		t.Fatalf("cell load %d exceeds cap %d", load, p.HeapCap())
	}
	if o.RTK().NumDocs() != 50 {
		t.Fatalf("NumDocs = %d", o.RTK().NumDocs())
	}
}

func TestRTKSketchDelete(t *testing.T) {
	p := testParams()
	q, o := newPair(t, p, nil)
	if err := o.AddDocument(0, map[uint64]int64{7: 5}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddDocument(1, map[uint64]int64{7: 9}); err != nil {
		t.Fatal(err)
	}
	got, _, err := RTKReverseTopK(q, o, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].DocID != 1 {
		t.Fatalf("before delete: %v", got)
	}
	if err := o.RemoveDocument(1); err != nil {
		t.Fatal(err)
	}
	got, _, err = RTKReverseTopK(q, o, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, dc := range got {
		if dc.DocID == 1 {
			t.Fatal("deleted document still returned")
		}
	}
	// Removing a never-present doc is refused and touches nothing.
	if err := o.RemoveDocument(12345); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("phantom removal: %v, want ErrUnknownDoc", err)
	}
	if got := o.RTK().NumDocs(); got != 1 {
		t.Fatalf("NumDocs %d after removing one of two documents, want 1", got)
	}
}

// buildZipfOwner populates an owner (and returns exact counts) with n
// documents whose counts of the probe term follow a skewed profile, so
// top-K is well defined.
func buildZipfOwner(t testing.TB, p Params, mech dp.Mechanism, n int, probe uint64) (*Owner, map[int]map[uint64]int64) {
	t.Helper()
	if mech == nil {
		mech = dp.Disabled()
	}
	o, err := NewOwner(p, 42, mech)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	dist := zipf.MustNew(500, 1.05)
	exact := make(map[int]map[uint64]int64, n)
	for id := 0; id < n; id++ {
		counts := map[uint64]int64{}
		// Background terms.
		for j := 0; j < 80; j++ {
			counts[uint64(1000+dist.Sample(rng))]++
		}
		// Probe term with a distinctive skewed count: doc 0 has the most.
		c := int64(0)
		if id < 40 {
			c = int64(200 / (id + 1))
		}
		if c > 0 {
			counts[probe] = c
		}
		exact[id] = counts
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	return o, exact
}

func TestNaiveReverseTopKExact(t *testing.T) {
	p := testParams()
	p.K = 10
	q, _ := newPair(t, p, nil)
	const probe = uint64(77)
	o, exact := buildZipfOwner(t, p, nil, 120, probe)
	got, cost, err := NaiveReverseTopK(q, o, probe, p.K)
	if err != nil {
		t.Fatal(err)
	}
	truth := ExactReverseTopK(exact, probe, p.K)
	if cr := CoverRate(got, truth); cr < 0.9 {
		t.Fatalf("naive cover rate %v too low (got %v truth %v)", cr, got, truth)
	}
	if cost.Messages != 120 {
		t.Fatalf("naive should message once per doc, got %d", cost.Messages)
	}
	if cost.BytesReceived != int64(120*8*p.Z) {
		t.Fatalf("naive bytes received = %d", cost.BytesReceived)
	}
}

func TestRTKAgreesWithNaive(t *testing.T) {
	p := testParams()
	p.K = 10
	p.Alpha = 8
	p.Beta = 0.1
	q, _ := newPair(t, p, nil)
	const probe = uint64(77)
	o, exact := buildZipfOwner(t, p, nil, 400, probe)
	truth := ExactReverseTopK(exact, probe, p.K)
	rtk, cost, err := RTKReverseTopK(q, o, probe, p.K)
	if err != nil {
		t.Fatal(err)
	}
	if cr := CoverRate(rtk, truth); cr < 0.8 {
		t.Fatalf("RTK cover rate %v too low", cr)
	}
	if cost.Messages != 1 {
		t.Fatalf("RTK should be one round trip, got %d messages", cost.Messages)
	}
	naive, naiveCost, err := NaiveReverseTopK(q, o, probe, p.K)
	if err != nil {
		t.Fatal(err)
	}
	if CoverRate(rtk, naive) < 0.7 {
		t.Fatal("RTK and NAIVE disagree badly at generous parameters")
	}
	if cost.BytesReceived >= naiveCost.BytesReceived {
		t.Fatalf("RTK traffic (%d) should undercut NAIVE (%d) at n=400",
			cost.BytesReceived, naiveCost.BytesReceived)
	}
}

func TestRTKEstimatorModes(t *testing.T) {
	p := testParams()
	p.K = 10
	const probe = uint64(77)
	truthOwner, exact := buildZipfOwner(t, p, nil, 200, probe)
	truth := ExactReverseTopK(exact, probe, p.K)
	for _, mode := range []EstimatorMode{EstimatorZeroFill, EstimatorPresentRows} {
		pm := p
		pm.Estimator = mode
		q, err := NewQuerier(pm, 42, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RTKReverseTopK(q, truthOwner, probe, pm.K)
		if err != nil {
			t.Fatal(err)
		}
		if cr := CoverRate(got, truth); cr < 0.7 {
			t.Fatalf("mode %d: cover rate %v", mode, cr)
		}
	}
	bad := p
	bad.Estimator = EstimatorMode(9)
	if err := bad.Validate(); !errors.Is(err, ErrBadParams) {
		t.Fatal("unknown estimator mode should be rejected")
	}
}

func TestRTKWithCountMin(t *testing.T) {
	p := testParams()
	p.SketchKind = sketch.CountMin
	p.K = 5
	q, _ := newPair(t, p, nil)
	const probe = uint64(88)
	o, exact := buildZipfOwner(t, p, nil, 60, probe)
	got, _, err := RTKReverseTopK(q, o, probe, p.K)
	if err != nil {
		t.Fatal(err)
	}
	truth := ExactReverseTopK(exact, probe, p.K)
	if cr := CoverRate(got, truth); cr < 0.8 {
		t.Fatalf("CountMin RTK cover rate %v", cr)
	}
}

func TestReverseTopKBadK(t *testing.T) {
	p := testParams()
	q, o := newPair(t, p, nil)
	if _, _, err := NaiveReverseTopK(q, o, 1, 0); !errors.Is(err, ErrBadParams) {
		t.Fatal("k=0 should error")
	}
	if _, _, err := RTKReverseTopK(q, o, 1, -1); !errors.Is(err, ErrBadParams) {
		t.Fatal("negative k should error")
	}
}

func TestExactReverseTopK(t *testing.T) {
	counts := map[int]map[uint64]int64{
		0: {5: 3},
		1: {5: 9},
		2: {5: 1},
		3: {6: 100}, // different term
	}
	got := ExactReverseTopK(counts, 5, 2)
	if len(got) != 2 || got[0].DocID != 1 || got[1].DocID != 0 {
		t.Fatalf("ExactReverseTopK = %v", got)
	}
	if got := ExactReverseTopK(counts, 999, 3); len(got) != 0 {
		t.Fatalf("absent term should return empty, got %v", got)
	}
}

func TestCoverRate(t *testing.T) {
	mk := func(ids ...int) []DocCount {
		out := make([]DocCount, len(ids))
		for i, id := range ids {
			out[i] = DocCount{DocID: id}
		}
		return out
	}
	if got := CoverRate(mk(1, 2, 3), mk(2, 3, 4)); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("CoverRate = %v", got)
	}
	if CoverRate(mk(), mk()) != 1 {
		t.Fatal("empty truth should be 1")
	}
	if CoverRate(mk(), mk(1)) != 0 {
		t.Fatal("empty got vs nonempty truth should be 0")
	}
}

func TestRTKSketchValidation(t *testing.T) {
	p := testParams()
	fam, err := p.Family(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRTKSketch(p, nil); !errors.Is(err, ErrBadParams) {
		t.Fatal("nil family should error")
	}
	p2 := p
	p2.W = p.W * 2
	if _, err := NewRTKSketch(p2, fam); !errors.Is(err, ErrBadParams) {
		t.Fatal("geometry mismatch should error")
	}
	if _, err := NewRTKSketch(p, fam); err != nil {
		t.Fatal(err)
	}
}

func TestNewQuerierValidation(t *testing.T) {
	p := testParams()
	if _, err := NewQuerier(p, 1, nil); !errors.Is(err, ErrBadParams) {
		t.Fatal("nil rng should error")
	}
	p.Z = 0
	if _, err := NewQuerier(p, 1, rand.New(rand.NewSource(1))); !errors.Is(err, ErrBadParams) {
		t.Fatal("bad params should error")
	}
}

func TestNewOwnerValidation(t *testing.T) {
	p := testParams()
	if _, err := NewOwner(p, 1, nil); !errors.Is(err, ErrBadParams) {
		t.Fatal("nil mechanism should error")
	}
	p.W = 0
	if _, err := NewOwner(p, 1, dp.Disabled()); !errors.Is(err, ErrBadParams) {
		t.Fatal("bad params should error")
	}
}

// TestSpaceAccounting: the RTK-Sketch should be dramatically smaller than
// the per-document sketch collection once n is large (Section VI-D).
func TestSpaceAccounting(t *testing.T) {
	p := testParams()
	p.Alpha = 2
	p.K = 5
	_, o := newPair(t, p, nil)
	rng := rand.New(rand.NewSource(2))
	for id := 0; id < 300; id++ {
		counts := map[uint64]int64{}
		for j := 0; j < 30; j++ {
			counts[uint64(rng.Intn(500))]++
		}
		if err := o.AddDocument(id, counts); err != nil {
			t.Fatal(err)
		}
	}
	naive := o.NaiveSizeBytes()
	rtk := o.RTKSizeBytes()
	if naive == 0 || rtk == 0 {
		t.Fatal("space accounting returned zero")
	}
	if rtk >= naive {
		t.Fatalf("RTK space (%d) should be below NAIVE space (%d) at n=300", rtk, naive)
	}
}

func BenchmarkNaiveReverseTopK(b *testing.B) {
	p := DefaultParams()
	p.Epsilon = 0
	q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	o, _ := buildZipfOwner(b, p, nil, 1000, 77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := NaiveReverseTopK(q, o, 77, p.K); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTKReverseTopK measures one reverse top-K query end to end
// (plan, owner answer, recovery): at the paper's K = 150 replaying one
// term, and at the benchmark geometry (K = 50, epsilon = 0.5, 1200
// documents) rotating over terms as distinct searches do.
func BenchmarkRTKReverseTopK(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		p := DefaultParams()
		p.Epsilon = 0
		q, err := NewQuerier(p, 42, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		o, _ := buildZipfOwner(b, p, nil, 1000, 77)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := RTKReverseTopK(q, o, 77, p.K); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("benchmark-geometry", func(b *testing.B) {
		q, o := benchGeometry(b, 0.5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := RTKReverseTopK(q, o, uint64(1000+i%500), 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRTKRecover measures the querier's recovery alone — the merge
// over the private rows, the estimates and the best k — over prebuilt
// replies at the benchmark geometry (epsilon = 0.5, every cell full),
// rotating over terms: at the k the scorecard asks for and at the
// paper's K.
func BenchmarkRTKRecover(b *testing.B) {
	q, o := benchGeometry(b, 0.5)
	plans := make([]*Plan, 64)
	replies := make([]OwnerAPI, len(plans))
	for i := range plans {
		plans[i] = q.Plan(uint64(1000 + i))
		resp, err := o.AnswerRTK(plans[i].Query())
		if err != nil {
			b.Fatal(err)
		}
		replies[i] = stubOwner{resp: resp}
	}
	for _, k := range []int{50, 150} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := RTKWithPlan(plans[i%len(plans)], replies[i%len(plans)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOwnerAnswerRTK measures the owner side alone at the benchmark
// geometry: warm answers to rotating queries, each released as recovery
// or the /rtk handler would, and the first answer after a mutation (an
// accepted push leaves its cells as heaps to re-sort).
func BenchmarkOwnerAnswerRTK(b *testing.B) {
	q, o := benchGeometry(b, 0.5)
	plans := make([]*Plan, 500)
	for i := range plans {
		plans[i] = q.Plan(uint64(1000 + i))
	}
	b.Run("warm", func(b *testing.B) {
		for _, plan := range plans { // bring every addressed cell to canonical order
			if _, err := o.AnswerRTK(plan.Query()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := o.AnswerRTK(plans[i%len(plans)].Query())
			if err != nil {
				b.Fatal(err)
			}
			resp.Release() // as its holder does once it has read or framed it
		}
	})
	nextDoc := 1_000_000 // the sub-benchmark body reruns as b.N grows
	b.Run("after-ingest", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			counts := map[uint64]int64{}
			for j := 0; j < 80; j++ {
				counts[uint64(1000+rng.Intn(500))] += 50 // heavy enough to be accepted
			}
			nextDoc++
			if err := o.AddDocument(nextDoc, counts); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := o.AnswerRTK(plans[i%len(plans)].Query()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOwnerAnswerTF measures Algorithm 2's owner side at the
// benchmark geometry over 1 200 documents: every call reads one cell per
// row of a different document's table, as the augmentation pipeline's
// point lookups do, so the tables are not cache-resident.
func BenchmarkOwnerAnswerTF(b *testing.B) {
	q, o := benchGeometry(b, 0.5)
	plans := make([]*Plan, 64)
	for i := range plans {
		plans[i] = q.Plan(uint64(1000 + i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.AnswerTF(i*7919%1200, plans[i%len(plans)].Query()); err != nil {
			b.Fatal(err)
		}
	}
}
