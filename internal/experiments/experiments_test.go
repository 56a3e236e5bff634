package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"csfltr/internal/telemetry"
)

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline(TestPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineConfigValidate(t *testing.T) {
	if err := DefaultPipelineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TestPipelineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*PipelineConfig){
		func(c *PipelineConfig) { c.Rounds = 0 },
		func(c *PipelineConfig) { c.TrainFrac = 0 },
		func(c *PipelineConfig) { c.TrainFrac = 1 },
		func(c *PipelineConfig) { c.AugPerQuery = -1 },
		func(c *PipelineConfig) { c.NegPerQuery = -1 },
		func(c *PipelineConfig) { c.Corpus.NumParties = 0 },
		func(c *PipelineConfig) { c.Params.Z = 0 },
	}
	for i, mut := range bad {
		c := TestPipelineConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestNewPipelineShape(t *testing.T) {
	p := testPipeline(t)
	n := p.Cfg.Corpus.NumParties
	if len(p.Fed.Parties) != n || len(p.trainQ) != n || len(p.testQ) != n {
		t.Fatal("pipeline party structures inconsistent")
	}
	for i := 0; i < n; i++ {
		if len(p.trainQ[i]) == 0 || len(p.testQ[i]) == 0 {
			t.Fatalf("party %d: empty train (%d) or test (%d) split",
				i, len(p.trainQ[i]), len(p.testQ[i]))
		}
		if p.Fed.Parties[i].NumDocs() != p.Cfg.Corpus.DocsPerParty {
			t.Fatalf("party %d ingested %d docs", i, p.Fed.Parties[i].NumDocs())
		}
	}
}

func TestLocalData(t *testing.T) {
	p := testPipeline(t)
	data := p.LocalData(0)
	if len(data) == 0 {
		t.Fatal("no local training data")
	}
	hasPos, hasNeg := false, false
	for _, inst := range data {
		if len(inst.Features) != 16 {
			t.Fatalf("feature dim %d", len(inst.Features))
		}
		if inst.Label > 0 {
			hasPos = true
		} else {
			hasNeg = true
		}
		if !strings.HasPrefix(inst.QueryKey, "p0.q") {
			t.Fatalf("bad query key %q", inst.QueryKey)
		}
	}
	if !hasPos || !hasNeg {
		t.Fatalf("local data lacks positives (%v) or negatives (%v)", hasPos, hasNeg)
	}
}

func TestAugment(t *testing.T) {
	p := testPipeline(t)
	res, err := p.Augment(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) == 0 {
		t.Fatal("augmentation produced no instances")
	}
	if res.Cost.Messages == 0 || res.Cost.BytesReceived == 0 {
		t.Fatalf("augmentation cost not recorded: %+v", res.Cost)
	}
	for _, inst := range res.Instances {
		if inst.Label != 1 && inst.Label != 2 {
			t.Fatalf("augmented label %v, want 1 or 2", inst.Label)
		}
		if len(inst.Features) != 16 {
			t.Fatalf("feature dim %d", len(inst.Features))
		}
	}
	// Per-query cap respected.
	perQuery := map[string]int{}
	for _, inst := range res.Instances {
		perQuery[inst.QueryKey]++
	}
	for k, n := range perQuery {
		if n > p.Cfg.AugPerQuery {
			t.Fatalf("query %s has %d augmented instances, cap %d", k, n, p.Cfg.AugPerQuery)
		}
	}
}

func TestTestData(t *testing.T) {
	p := testPipeline(t)
	test := p.TestData()
	if len(test) == 0 {
		t.Fatal("no test data")
	}
	labels := map[float64]bool{}
	for _, inst := range test {
		labels[inst.Label] = true
	}
	if !labels[0] || (!labels[1] && !labels[2]) {
		t.Fatalf("test labels lack classes: %v", labels)
	}
}

func TestRunTable1(t *testing.T) {
	p := testPipeline(t)
	res, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Local.PerParty) != 4 || len(res.LocalPlus.PerParty) != 4 {
		t.Fatal("per-party metrics missing")
	}
	check := func(name string, v float64) {
		if v < 0 || v > 1 {
			t.Fatalf("%s = %v outside [0,1]", name, v)
		}
	}
	for i, m := range res.Local.PerParty {
		check("local ERR", m.ERR)
		check("local nDCG", m.NDCG)
		if m.NDCG == 0 {
			t.Fatalf("party %d local nDCG is zero — model learned nothing", i)
		}
	}
	check("global nDCG", res.Global.NDCG)
	check("csfltr nDCG", res.CSFLTR.NDCG)
	if res.CSFLTR.NDCG == 0 || res.Global.NDCG == 0 {
		t.Fatal("federated models learned nothing")
	}
	// Trained models should beat random ranking decisively on nDCG@10.
	if res.CSFLTR.NDCG10 < 0.3 {
		t.Fatalf("CS-F-LTR nDCG@10 = %v — suspiciously bad", res.CSFLTR.NDCG10)
	}
	if res.ServerTraffic.Messages == 0 {
		t.Fatal("no server traffic recorded")
	}
	out := RenderTable1(res)
	for _, needle := range []string{"Local", "Local+", "Global", "CS-F-LTR", "Party A", "Average"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("rendered table missing %q:\n%s", needle, out)
		}
	}
}

// TestTable1CountsOnlyItsOwnTraffic: on a registry an earlier pipeline
// already relayed through — its parties named A, B, C… like Table I's —
// Table I reports the traffic a lone run reports.
func TestTable1CountsOnlyItsOwnTraffic(t *testing.T) {
	lone, err := RunTable1(testPipeline(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TestPipelineConfig()
	cfg.Metrics = telemetry.NewRegistry()
	earlier, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := earlier.Augment(0, true); err != nil {
		t.Fatal(err)
	}
	if earlier.Fed.Server.Traffic().Messages == 0 {
		t.Fatal("the earlier pipeline relayed nothing")
	}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := RunTable1(p)
	if err != nil {
		t.Fatal(err)
	}
	if shared.ServerTraffic != lone.ServerTraffic {
		t.Fatalf("Table I on a shared registry reports %+v, a lone run %+v",
			shared.ServerTraffic, lone.ServerTraffic)
	}
}

func TestRunAggregatorAblation(t *testing.T) {
	p := testPipeline(t)
	ab, err := RunAggregatorAblation(p)
	if err != nil {
		t.Fatal(err)
	}
	if ab.RoundRobin.NDCG == 0 || ab.FedAvg.NDCG == 0 {
		t.Fatalf("an aggregator learned nothing: %+v", ab)
	}
	if out := RenderAggregatorAblation(ab); !strings.Contains(out, "fedavg") {
		t.Fatal("render missing fedavg row")
	}
}

func TestRunEstimatorAblation(t *testing.T) {
	cfg := TestFig4Config()
	ab, err := RunEstimatorAblation(cfg, "alpha", []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.ZeroFill) != 2 || len(ab.Present) != 2 {
		t.Fatalf("ablation shapes wrong: %+v", ab)
	}
	// Zero-fill should never be materially worse than present-rows.
	for i := range ab.ZeroFill {
		if ab.ZeroFill[i].CoverRate+0.1 < ab.Present[i].CoverRate {
			t.Fatalf("zero-fill (%v) much worse than present-rows (%v)",
				ab.ZeroFill[i].CoverRate, ab.Present[i].CoverRate)
		}
	}
	if out := RenderEstimatorAblation(ab); !strings.Contains(out, "zero-fill") {
		t.Fatal("render missing header")
	}
}

func TestRunFig4Sweep(t *testing.T) {
	cfg := TestFig4Config()
	points, err := RunFig4Sweep(cfg, "alpha", []float64{1, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Cover rate should not decrease with alpha (larger heaps).
	if points[2].CoverRate+0.05 < points[0].CoverRate {
		t.Fatalf("cover rate fell with alpha: %v", points)
	}
	// Space grows with alpha.
	if points[2].RTKSpaceBytes <= points[0].RTKSpaceBytes {
		t.Fatalf("RTK space did not grow with alpha: %v vs %v",
			points[0].RTKSpaceBytes, points[2].RTKSpaceBytes)
	}
	for _, p := range points {
		if p.CoverRate < 0 || p.CoverRate > 1 {
			t.Fatalf("cover rate %v", p.CoverRate)
		}
		if p.RTKQueryMicros <= 0 {
			t.Fatalf("no RTK timing: %+v", p)
		}
	}
	// Rendering and CSV.
	if out := RenderFig4(points); !strings.Contains(out, "cover-rate") {
		t.Fatal("render missing header")
	}
	var buf bytes.Buffer
	if err := WriteFig4CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4 {
		t.Fatalf("CSV has %d lines", lines)
	}
}

func TestRunFig4SweepBadParam(t *testing.T) {
	cfg := TestFig4Config()
	if _, err := RunFig4Sweep(cfg, "bogus", []float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("unknown parameter should error")
	}
	if _, err := RunFig4Sweep(cfg, "alpha", nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty values should error")
	}
	cfg.Docs = 0
	if _, err := RunFig4Sweep(cfg, "alpha", []float64{1}); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad config should error")
	}
}

func TestPaperFig4Sweeps(t *testing.T) {
	sweeps := PaperFig4Sweeps()
	for _, key := range []string{"alpha", "beta", "k", "w", "z"} {
		if len(sweeps[key]) == 0 {
			t.Fatalf("missing sweep %q", key)
		}
	}
}

func TestRunHeadline(t *testing.T) {
	cfg := TestFig4Config()
	res, err := RunHeadline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock speedup is load-sensitive on shared CI machines; only
	// log it. The deployed projection (dominated by the deterministic
	// per-document round-trip count) must always favour RTK.
	t.Logf("measured speedup %.1fx, deployed %.1fx", res.Speedup, res.DeployedSpeedup)
	if res.DeployedSpeedup <= 1 {
		t.Fatalf("RTK should beat NAIVE at any RTT: deployed speedup %v", res.DeployedSpeedup)
	}
	if res.SpaceReduction <= 1 {
		t.Fatalf("RTK should be smaller than NAIVE: reduction %v", res.SpaceReduction)
	}
	if res.CoverRate < 0.5 {
		t.Fatalf("headline cover rate %v", res.CoverRate)
	}
	if out := RenderHeadline(res); !strings.Contains(out, "speedup") {
		t.Fatal("headline render missing speedup")
	}
}

func TestRunTrafficComparison(t *testing.T) {
	cfg := TestFig4Config()
	cfg.Docs = 200
	res, err := RunTrafficComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RTKTraffic.Bytes >= res.NaiveTraffic.Bytes {
		t.Fatalf("RTK traffic (%d) should undercut NAIVE (%d)",
			res.RTKTraffic.Bytes, res.NaiveTraffic.Bytes)
	}
	if res.RTKTraffic.Messages >= res.NaiveTraffic.Messages {
		t.Fatalf("RTK messages (%d) should undercut NAIVE (%d)",
			res.RTKTraffic.Messages, res.NaiveTraffic.Messages)
	}
}

func TestRunSSEComparison(t *testing.T) {
	cfg := TestFig4Config()
	res, err := RunSSEComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SSECover < 0.999 {
		t.Fatalf("SSE is exact; cover %v", res.SSECover)
	}
	if res.SketchCover < 0.7 {
		t.Fatalf("sketch cover %v", res.SketchCover)
	}
	if res.SSEIndexBytes <= 0 || res.SketchBytes <= 0 {
		t.Fatal("sizes not measured")
	}
	if res.SSEQueryMicros <= 0 || res.SketchQueryMicros <= 0 {
		t.Fatal("query times not measured")
	}
	if out := RenderSSEComparison(res); !strings.Contains(out, "flexibility") {
		t.Fatal("render incomplete")
	}
	cfg.Docs = 0
	if _, err := RunSSEComparison(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad config should error")
	}
}

func TestRunFig5(t *testing.T) {
	cfg := TestFig5Config()
	strategies := []Fig5Strategy{
		PaperFig5Strategies()[0], // exact
		PaperFig5Strategies()[1], // count w=200
		PaperFig5Strategies()[7], // count z1=1
	}
	panels, err := RunFig5(cfg, strategies)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 3 {
		t.Fatalf("got %d panels", len(panels))
	}
	for _, p := range panels {
		if len(p.Points) != len(p.Labels) || len(p.Points) == 0 {
			t.Fatalf("panel %q has inconsistent points/labels", p.Strategy.Name)
		}
	}
	// The exact panel should separate at least as well as the heavily
	// obfuscated z1=1 panel on the probe accuracy.
	if panels[0].Probes.ProbeAccuracy+0.03 < panels[2].Probes.ProbeAccuracy {
		t.Fatalf("exact (%v) should not separate worse than z1=1 (%v)",
			panels[0].Probes.ProbeAccuracy, panels[2].Probes.ProbeAccuracy)
	}
	if out := RenderFig5(panels); !strings.Contains(out, "probe-acc") {
		t.Fatal("fig5 render missing header")
	}
	var buf bytes.Buffer
	if err := WriteFig5PointsCSV(&buf, panels[0]); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "x,y,label\n") {
		t.Fatal("fig5 CSV missing header")
	}
	if sc := Scatter(panels[0].Points, panels[0].Labels, 40, 12); len(sc) == 0 {
		t.Fatal("scatter rendering empty")
	}
}

func TestWriteFig5SVG(t *testing.T) {
	panel := Fig5Panel{
		Strategy: Fig5Strategy{Name: "count<w&50>"},
		Points:   [][]float64{{0, 0}, {1, 1}, {2, 0.5}},
		Labels:   []int{1, 0, 1},
	}
	var buf bytes.Buffer
	if err := WriteFig5SVG(&buf, panel, 200, 200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatal("not a well-formed SVG document")
	}
	if strings.Count(out, "<circle") != 3 {
		t.Fatalf("expected 3 points, got %d", strings.Count(out, "<circle"))
	}
	if !strings.Contains(out, "count&lt;w&amp;50&gt;") {
		t.Fatal("strategy name not XML-escaped")
	}
	// Degenerate cases.
	if err := WriteFig5SVG(&buf, Fig5Panel{Strategy: Fig5Strategy{Name: "x"}}, 200, 200); !errors.Is(err, ErrBadConfig) {
		t.Fatal("empty panel should error")
	}
	// Identical coordinates must not divide by zero.
	flat := Fig5Panel{Strategy: Fig5Strategy{Name: "flat"},
		Points: [][]float64{{1, 1}, {1, 1}}, Labels: []int{0, 1}}
	buf.Reset()
	if err := WriteFig5SVG(&buf, flat, 50, 50); err != nil { // also exercises min-size clamp
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatal("degenerate panel produced NaN coordinates")
	}
}

func TestRunFig5Validation(t *testing.T) {
	cfg := TestFig5Config()
	if _, err := RunFig5(cfg, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatal("no strategies should error")
	}
	bad := []Fig5Strategy{{Name: "broken", Kind: 0, W: 1, Z: 0, Z1: 0}}
	if _, err := RunFig5(cfg, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatal("bad strategy should error")
	}
	cfg.Samples = 1
	if _, err := RunFig5(cfg, PaperFig5Strategies()[:1]); !errors.Is(err, ErrBadConfig) {
		t.Fatal("too few samples should error")
	}
}

func TestRunFig6a(t *testing.T) {
	cfg := TestPipelineConfig()
	points, err := RunFig6a(cfg, []float64{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.Metrics.NDCG == 0 {
			t.Fatalf("eps=%v: model learned nothing", p.Epsilon)
		}
	}
	if out := RenderFig6a(points); !strings.Contains(out, "off") {
		t.Fatalf("fig6a render should label eps=0 as off:\n%s", out)
	}
}

func TestRunFig6b(t *testing.T) {
	cfg := TestPipelineConfig()
	points, err := RunFig6b(cfg, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Parties != 1 || points[1].Parties != 3 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Metrics.NDCG == 0 {
			t.Fatalf("n=%d: model learned nothing", p.Parties)
		}
	}
	if out := RenderFig6b(points); !strings.Contains(out, "parties") {
		t.Fatal("fig6b render missing header")
	}
}

func TestScatterEdgeCases(t *testing.T) {
	if Scatter(nil, nil, 10, 10) != "" {
		t.Fatal("empty scatter should be empty")
	}
	pts := [][]float64{{0, 0}, {0, 0}}
	out := Scatter(pts, []int{0, 1}, 8, 4)
	if !strings.Contains(out, "8") {
		t.Fatalf("overlapping classes should render as 8:\n%q", out)
	}
}

func TestPartyName(t *testing.T) {
	if partyName(0) != "A" || partyName(3) != "D" {
		t.Fatal("party naming wrong")
	}
	if partyName(30) != "P30" {
		t.Fatalf("partyName(30) = %s", partyName(30))
	}
}
