package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/federation"
	"csfltr/internal/textkit"
	"csfltr/internal/zipf"
)

// Fig4Config configures the RTK-Sketch performance evaluation (Fig. 4):
// a single document owner, a single querier and a set of probe terms with
// skewed cross-document counts.
type Fig4Config struct {
	// Docs is the number of documents at the owner (n in Section V).
	Docs int
	// DocLen is the number of terms per document.
	DocLen int
	// Vocab is the background vocabulary size.
	Vocab int
	// ProbeTerms is how many query terms the sweep averages over.
	ProbeTerms int
	// NaiveTerms caps how many probe terms also run the NAIVE baseline
	// (it is orders of magnitude slower); 0 disables NAIVE timing.
	NaiveTerms int
	// Base is the parameter setting that each sweep perturbs; the paper's
	// default is alpha=5, beta=0.1, w=200, z=30, K=150.
	Base core.Params
	// RTTMillis is the assumed network round-trip time used to project
	// deployed query latency in the headline comparison: NAIVE pays one
	// round trip per document, RTK pays one in total. The paper's
	// ">100 s vs <10 ms" gap is dominated by exactly this term.
	RTTMillis float64
	Seed      int64
}

// DefaultFig4Config returns a laptop-scale configuration preserving the
// skew structure of the paper's setup.
func DefaultFig4Config() Fig4Config {
	base := core.DefaultParams()
	base.Epsilon = 0 // Fig. 4 studies the sketch, not DP
	// Section V-C: "we will abuse z1 by z for simplification" — the
	// paper's RTK analysis and Fig. 4 run without query obfuscation, so
	// the soft intersection filters on beta*z rows.
	base.Z1 = base.Z
	return Fig4Config{
		Docs:       4000,
		DocLen:     300,
		Vocab:      20000,
		ProbeTerms: 10,
		NaiveTerms: 3,
		Base:       base,
		RTTMillis:  1,
		Seed:       1,
	}
}

// TestFig4Config returns a tiny configuration for unit tests.
func TestFig4Config() Fig4Config {
	cfg := DefaultFig4Config()
	cfg.Docs = 300
	cfg.DocLen = 80
	cfg.Vocab = 3000
	cfg.ProbeTerms = 4
	cfg.NaiveTerms = 2
	cfg.Base.K = 20
	cfg.Base.W = 128
	cfg.Base.Z = 12
	cfg.Base.Z1 = 12 // z1 = z, as in the paper's RTK analysis
	return cfg
}

// Validate reports whether the configuration is usable.
func (c Fig4Config) Validate() error {
	switch {
	case c.Docs <= 0 || c.DocLen <= 0 || c.Vocab < 100:
		return fmt.Errorf("%w: docs=%d len=%d vocab=%d", ErrBadConfig, c.Docs, c.DocLen, c.Vocab)
	case c.ProbeTerms <= 0:
		return fmt.Errorf("%w: ProbeTerms=%d", ErrBadConfig, c.ProbeTerms)
	case c.NaiveTerms < 0 || c.NaiveTerms > c.ProbeTerms:
		return fmt.Errorf("%w: NaiveTerms=%d", ErrBadConfig, c.NaiveTerms)
	}
	return c.Base.Validate()
}

// Fig4Point is one measurement of one sweep: the swept value, the
// cover rate against the exact reverse top-K, per-query wall times and
// owner-side space.
type Fig4Point struct {
	Param string  // swept parameter name
	Value float64 // swept value

	CoverRate float64
	// RTKQueryMicros and NaiveQueryMicros are mean per-term query times.
	RTKQueryMicros   float64
	NaiveQueryMicros float64
	// Space in bytes at the owner: the RTK-Sketch's (every entry a cell
	// holds) and the NAIVE tables'.
	RTKSpaceBytes   int64
	NaiveSpaceBytes int64
	// Traffic per query in bytes (owner -> querier).
	RTKRespBytes   int64
	NaiveRespBytes int64
}

// fig4Workload is the generated document collection plus probe terms.
type fig4Workload struct {
	counts map[int]map[uint64]int64 // docID -> term -> count
	probes []uint64
}

// buildFig4Workload synthesizes Zipfian documents with a set of "salient"
// probe terms whose counts decay across documents following the paper's
// Theorem 4 model (c_i proportional to L / i^q): the most relevant
// document repeats the term on the order of L/q times and counts decay
// polynomially, so reverse top-K is well-defined and the top-K counts
// stay well above the sketch collision noise — matching the MS MARCO
// structure the paper measures cover rates on.
func buildFig4Workload(cfg Fig4Config) *fig4Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	background := zipf.MustNew(cfg.Vocab, 1.05)
	w := &fig4Workload{counts: make(map[int]map[uint64]int64, cfg.Docs)}
	for t := 0; t < cfg.ProbeTerms; t++ {
		w.probes = append(w.probes, uint64(cfg.Vocab+1000+t))
	}
	// Each probe occurs in a quarter of the documents — well beyond the
	// heap capacity alpha*K at small alpha, so cell eviction is a real
	// effect, as it is at the paper's n=36,400.
	matching := cfg.Docs / 4
	if matching < 1 {
		matching = 1
	}
	// Peak count c1 and the slow polynomial decay put the K-th count a
	// few standard deviations above the sketch collision noise — strong
	// enough for reverse top-K to be meaningful, weak enough that rows
	// disagree near the boundary (which is what the beta filter trades
	// against; see Theorem 4's p_i < 1).
	c1 := float64(cfg.DocLen) / 4
	for id := 0; id < cfg.Docs; id++ {
		tc := make(map[uint64]int64)
		for i := 0; i < cfg.DocLen; i++ {
			tc[uint64(background.Sample(rng))]++
		}
		for ti, term := range w.probes {
			// Rotate which documents match each probe so the probes rank
			// distinct document subsets.
			r := (id + ti*(cfg.Docs/len(w.probes)+1)) % cfg.Docs
			if r < matching {
				c := int64(math.Round(c1 / math.Pow(float64(r+1), 0.5)))
				if c > 0 {
					tc[term] = c
				}
			}
		}
		w.counts[id] = tc
	}
	return w
}

// runFig4Point measures one parameter setting against a prepared
// workload.
func runFig4Point(cfg Fig4Config, params core.Params, w *fig4Workload, param string, value float64) (Fig4Point, error) {
	pt := Fig4Point{Param: param, Value: value}
	querier, err := core.NewQuerier(params, uint64(cfg.Seed)+7, rand.New(rand.NewSource(cfg.Seed+13)))
	if err != nil {
		return pt, err
	}
	owner, err := core.NewOwner(params, uint64(cfg.Seed)+7, dp.Disabled())
	if err != nil {
		return pt, err
	}
	for id := 0; id < cfg.Docs; id++ {
		if err := owner.AddDocument(id, w.counts[id]); err != nil {
			return pt, err
		}
	}
	pt.RTKSpaceBytes = owner.RTKSizeBytes()
	pt.NaiveSpaceBytes = owner.NaiveSizeBytes()

	var coverSum float64
	var rtkTime time.Duration
	var rtkBytes int64
	for _, term := range w.probes {
		truth := core.ExactReverseTopK(w.counts, term, params.K)
		start := time.Now()
		got, cost, err := core.RTKReverseTopK(querier, owner, term, params.K)
		rtkTime += time.Since(start)
		if err != nil {
			return pt, err
		}
		rtkBytes += cost.BytesReceived
		coverSum += core.CoverRate(got, truth)
	}
	n := float64(len(w.probes))
	pt.CoverRate = coverSum / n
	pt.RTKQueryMicros = float64(rtkTime.Microseconds()) / n
	pt.RTKRespBytes = rtkBytes / int64(len(w.probes))

	if cfg.NaiveTerms > 0 {
		var naiveTime time.Duration
		var naiveBytes int64
		for _, term := range w.probes[:cfg.NaiveTerms] {
			start := time.Now()
			_, cost, err := core.NaiveReverseTopK(querier, owner, term, params.K)
			naiveTime += time.Since(start)
			if err != nil {
				return pt, err
			}
			naiveBytes += cost.BytesReceived
		}
		pt.NaiveQueryMicros = float64(naiveTime.Microseconds()) / float64(cfg.NaiveTerms)
		pt.NaiveRespBytes = naiveBytes / int64(cfg.NaiveTerms)
	}
	return pt, nil
}

// RunFig4Sweep sweeps one protocol parameter ("alpha", "beta", "k", "w"
// or "z") over the given values, reproducing one column of Fig. 4.
func RunFig4Sweep(cfg Fig4Config, param string, values []float64) ([]Fig4Point, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: no sweep values", ErrBadConfig)
	}
	w := buildFig4Workload(cfg)
	out := make([]Fig4Point, 0, len(values))
	for _, v := range values {
		params := cfg.Base
		switch param {
		case "alpha":
			params.Alpha = int(v)
		case "beta":
			params.Beta = v
		case "k":
			params.K = int(v)
		case "w":
			params.W = int(v)
		case "z":
			params.Z = int(v)
			if cfg.Base.Z1 == cfg.Base.Z {
				params.Z1 = params.Z // preserve the z1 = z convention
			} else if params.Z1 > params.Z {
				params.Z1 = params.Z
			}
		default:
			return nil, fmt.Errorf("%w: unknown sweep parameter %q", ErrBadConfig, param)
		}
		pt, err := runFig4Point(cfg, params, w, param, v)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig4 %s=%v: %w", param, v, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// PaperFig4Sweeps returns the five sweeps of Fig. 4 with value grids
// bracketing the paper's defaults.
func PaperFig4Sweeps() map[string][]float64 {
	return map[string][]float64{
		"alpha": {1, 2, 3, 5, 7, 10},
		"beta":  {0.05, 0.1, 0.2, 0.3, 0.5},
		"k":     {50, 100, 150, 200, 300},
		"w":     {50, 100, 200, 400, 800},
		"z":     {10, 20, 30, 50, 70},
	}
}

// EstimatorAblation holds the cover rates of both RTK candidate
// estimators over one parameter sweep — the design-choice ablation
// DESIGN.md calls out (zero-fill vs the paper-literal present-rows
// median).
type EstimatorAblation struct {
	Param    string
	ZeroFill []Fig4Point
	Present  []Fig4Point
}

// RunEstimatorAblation sweeps one parameter under both estimator modes.
func RunEstimatorAblation(cfg Fig4Config, param string, values []float64) (*EstimatorAblation, error) {
	out := &EstimatorAblation{Param: param}
	zf := cfg
	zf.Base.Estimator = core.EstimatorZeroFill
	points, err := RunFig4Sweep(zf, param, values)
	if err != nil {
		return nil, err
	}
	out.ZeroFill = points
	pr := cfg
	pr.Base.Estimator = core.EstimatorPresentRows
	points, err = RunFig4Sweep(pr, param, values)
	if err != nil {
		return nil, err
	}
	out.Present = points
	return out, nil
}

// HeadlineResult is the Section VI-D headline comparison: one reverse
// top-K term query, NAIVE vs RTK, at a given document count.
type HeadlineResult struct {
	Docs           int
	NaiveMillis    float64
	RTKMillis      float64
	Speedup        float64
	NaiveBytes     int64 // per-query response traffic
	RTKBytes       int64
	NaiveSpace     int64 // owner-side memory
	RTKSpace       int64
	SpaceReduction float64
	CoverRate      float64 // RTK vs exact

	// Deployed-latency projection at the configured RTT: NAIVE performs
	// one server-relayed round trip per document, RTK one in total.
	RTTMillis        float64
	NaiveDeployedSec float64
	RTKDeployedMs    float64
	DeployedSpeedup  float64
}

// RunHeadline measures the NAIVE -> RTK improvement the paper summarizes
// as "from over 100s to less than 10ms" and "space ... roughly to 1/5".
func RunHeadline(cfg Fig4Config) (*HeadlineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := buildFig4Workload(cfg)
	pt, err := runFig4Point(cfg, cfg.Base, w, "headline", 0)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{
		Docs:        cfg.Docs,
		NaiveMillis: pt.NaiveQueryMicros / 1000,
		RTKMillis:   pt.RTKQueryMicros / 1000,
		NaiveBytes:  pt.NaiveRespBytes,
		RTKBytes:    pt.RTKRespBytes,
		NaiveSpace:  pt.NaiveSpaceBytes,
		RTKSpace:    pt.RTKSpaceBytes,
		CoverRate:   pt.CoverRate,
	}
	if res.RTKMillis > 0 {
		res.Speedup = res.NaiveMillis / res.RTKMillis
	}
	if res.RTKSpace > 0 {
		res.SpaceReduction = float64(res.NaiveSpace) / float64(res.RTKSpace)
	}
	res.RTTMillis = cfg.RTTMillis
	res.NaiveDeployedSec = (res.NaiveMillis + float64(cfg.Docs)*cfg.RTTMillis) / 1000
	res.RTKDeployedMs = res.RTKMillis + cfg.RTTMillis
	if res.RTKDeployedMs > 0 {
		res.DeployedSpeedup = res.NaiveDeployedSec * 1000 / res.RTKDeployedMs
	}
	return res, nil
}

// TrafficComparison measures relayed server traffic for one reverse
// top-K under both algorithms through a two-party federation — the
// communication-cost claim of Section V in end-to-end form.
type TrafficComparison struct {
	NaiveTraffic federation.TrafficStats
	RTKTraffic   federation.TrafficStats
}

// RunTrafficComparison ingests the Fig. 4 workload into a two-party
// federation and measures relayed bytes for one probe term.
func RunTrafficComparison(cfg Fig4Config) (*TrafficComparison, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := buildFig4Workload(cfg)
	fed, err := federation.NewDeterministic([]string{"A", "B"}, cfg.Base, uint64(cfg.Seed)+7, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b, _ := fed.Party("B")
	for id := 0; id < cfg.Docs; id++ {
		body := make(textkit.TermVector)
		for t, c := range w.counts[id] {
			body[textkit.TermID(t)] = int(c)
		}
		d := &textkit.Document{ID: id, Topic: -1, Body: flatten(body)}
		if err := b.IngestDocument(d); err != nil {
			return nil, err
		}
	}
	out := &TrafficComparison{}
	term := w.probes[0]
	fed.Server.ResetTraffic()
	if _, _, err := fed.ReverseTopK("A", "B", federation.FieldBody, term, cfg.Base.K, false); err != nil {
		return nil, err
	}
	out.NaiveTraffic = fed.Server.Traffic()
	fed.Server.ResetTraffic()
	if _, _, err := fed.ReverseTopK("A", "B", federation.FieldBody, term, cfg.Base.K, true); err != nil {
		return nil, err
	}
	out.RTKTraffic = fed.Server.Traffic()
	return out, nil
}

// flatten expands a term vector back into a term sequence (order is
// irrelevant to sketching).
func flatten(tv textkit.TermVector) []textkit.TermID {
	var out []textkit.TermID
	for t, c := range tv {
		for i := 0; i < c; i++ {
			out = append(out, t)
		}
	}
	return out
}
