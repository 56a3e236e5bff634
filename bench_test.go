package csfltr

// This file holds one benchmark per table and figure of the paper's
// evaluation section (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the recorded results). Each benchmark runs the
// corresponding experiments runner at a laptop-scale configuration that
// preserves the paper's workload shape; `go test -bench=.` regenerates
// every row/series.

import (
	"fmt"
	"math/rand"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/experiments"
)

// benchFig4 runs one Fig. 4 sweep column per iteration and reports the
// mean cover rate of the last run as a benchmark metric. Under -short
// (make bench-smoke, which runs one iteration of every benchmark under
// the race detector) it starts from the unit tests' tiny configuration.
func benchFig4(b *testing.B, param string, values []float64) {
	b.Helper()
	cfg := experiments.DefaultFig4Config()
	cfg.Docs = 1500
	cfg.DocLen = 150
	cfg.ProbeTerms = 5
	cfg.NaiveTerms = 1
	if testing.Short() {
		cfg = experiments.TestFig4Config()
	}
	var points []experiments.Fig4Point
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunFig4Sweep(cfg, param, values)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var cover float64
	for _, p := range points {
		cover += p.CoverRate
	}
	b.ReportMetric(cover/float64(len(points)), "mean-cover-rate")
}

// BenchmarkFig4Alpha regenerates Fig. 4 column 1 (impact of alpha).
func BenchmarkFig4Alpha(b *testing.B) { benchFig4(b, "alpha", []float64{1, 2, 3, 5, 7, 10}) }

// BenchmarkFig4Beta regenerates Fig. 4 column 2 (impact of beta).
func BenchmarkFig4Beta(b *testing.B) { benchFig4(b, "beta", []float64{0.05, 0.1, 0.2, 0.3, 0.5}) }

// BenchmarkFig4K regenerates Fig. 4 column 3 (impact of K).
func BenchmarkFig4K(b *testing.B) { benchFig4(b, "k", []float64{50, 100, 150, 200, 300}) }

// BenchmarkFig4W regenerates Fig. 4 column 4 (impact of hash range w).
func BenchmarkFig4W(b *testing.B) { benchFig4(b, "w", []float64{50, 100, 200, 400, 800}) }

// BenchmarkFig4Z regenerates Fig. 4 column 5 (impact of hash count z).
func BenchmarkFig4Z(b *testing.B) { benchFig4(b, "z", []float64{10, 20, 30, 50, 70}) }

// BenchmarkNaiveVsRTK times single reverse top-K queries under both
// algorithms at the same owner (Fig. 4's time-cost comparison in
// miniature): the per-op numbers of the two sub-benchmarks are directly
// comparable. Under -short the owner holds a tenth of the documents.
func BenchmarkNaiveVsRTK(b *testing.B) {
	params := core.DefaultParams()
	params.Epsilon = 0
	querier, err := core.NewQuerier(params, 7, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	owner, err := core.NewOwner(params, 7, dp.Disabled())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const probe = uint64(99991)
	docs := 3000
	if testing.Short() {
		docs = 300
	}
	for id := 0; id < docs; id++ {
		counts := make(map[uint64]int64)
		for j := 0; j < 120; j++ {
			counts[uint64(rng.Intn(20000))]++
		}
		if id%7 == 0 {
			counts[probe] = int64(1 + rng.Intn(40))
		}
		if err := owner.AddDocument(id, counts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.NaiveReverseTopK(querier, owner, probe, params.K); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rtk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.RTKReverseTopK(querier, owner, probe, params.K); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeadlineSpeedup regenerates the Section VI-D headline
// ("NAIVE >100s vs RTK <10ms; space to ~1/5"), reporting the measured
// speedup and space-reduction factors as metrics. Under -short it starts
// from the unit tests' tiny Fig. 4 configuration.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	cfg := experiments.DefaultFig4Config()
	cfg.Docs = 3000
	cfg.DocLen = 200
	cfg.ProbeTerms = 3
	cfg.NaiveTerms = 2
	if testing.Short() {
		cfg = experiments.TestFig4Config()
	}
	var res *experiments.HeadlineResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunHeadline(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Speedup, "speedup-x")
	b.ReportMetric(res.SpaceReduction, "space-reduction-x")
	b.ReportMetric(res.CoverRate, "cover-rate")
}

// BenchmarkFig5Embed regenerates Fig. 5: feature extraction under three
// representative sketch strategies plus t-SNE embedding and separability
// probes. The probe accuracies of the exact and w=200 panels are
// reported; the paper's claim is that they stay close.
func BenchmarkFig5Embed(b *testing.B) {
	cfg := experiments.TestFig5Config()
	cfg.Samples = 120
	strategies := []experiments.Fig5Strategy{
		experiments.PaperFig5Strategies()[0],
		experiments.PaperFig5Strategies()[1],
		experiments.PaperFig5Strategies()[7],
	}
	var panels []experiments.Fig5Panel
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		panels, err = experiments.RunFig5(cfg, strategies)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(panels[0].Probes.ProbeAccuracy, "exact-probe-acc")
	b.ReportMetric(panels[1].Probes.ProbeAccuracy, "sketch-probe-acc")
	b.ReportMetric(panels[2].Probes.ProbeAccuracy, "z1eq1-probe-acc")
}

// BenchmarkTable1Pipeline regenerates Table I end-to-end: corpus,
// federation, augmentation through the privacy-preserving protocols,
// four training regimes and evaluation. Reports CS-F-LTR and mean-local
// nDCG@10 so the "who wins" shape is visible in the bench output.
func BenchmarkTable1Pipeline(b *testing.B) {
	cfg := experiments.TestPipelineConfig()
	var res *experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := experiments.NewPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err = experiments.RunTable1(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.CSFLTR.NDCG10, "csfltr-ndcg10")
	b.ReportMetric(res.Local.Average.NDCG10, "local-avg-ndcg10")
	b.ReportMetric(res.Global.NDCG10, "global-ndcg10")
}

// BenchmarkFig6aEpsilon regenerates Fig. 6a (impact of privacy budget).
func BenchmarkFig6aEpsilon(b *testing.B) {
	cfg := experiments.TestPipelineConfig()
	eps := []float64{0, 0.5, 2}
	var points []experiments.Fig6aPoint
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunFig6a(cfg, eps)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range points {
		b.ReportMetric(p.Metrics.NDCG10, fmt.Sprintf("ndcg10-eps%g", p.Epsilon))
	}
}

// BenchmarkSSEVsSketch runs the encryption-based comparator (DESIGN.md
// E13): SSE exact keyword search vs the RTK-Sketch on the same workload,
// reporting both per-query times as metrics.
func BenchmarkSSEVsSketch(b *testing.B) {
	cfg := experiments.TestFig4Config()
	cfg.Docs = 1000
	var res *experiments.SSEComparison
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunSSEComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.SSEQueryMicros, "sse-query-us")
	b.ReportMetric(res.SketchQueryMicros, "rtk-query-us")
	b.ReportMetric(res.SketchCover, "rtk-cover")
}

// BenchmarkFig6bParties regenerates Fig. 6b (impact of number of
// parties).
func BenchmarkFig6bParties(b *testing.B) {
	cfg := experiments.TestPipelineConfig()
	ns := []int{1, 2, 4}
	var points []experiments.Fig6bPoint
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err = experiments.RunFig6b(cfg, ns)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range points {
		b.ReportMetric(p.Metrics.NDCG10, fmt.Sprintf("ndcg10-n%d", p.Parties))
	}
}
