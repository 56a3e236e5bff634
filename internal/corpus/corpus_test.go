package corpus

import (
	"errors"
	"math"
	"testing"

	"csfltr/internal/textkit"
	"csfltr/internal/zipf"
)

func TestConfigValidate(t *testing.T) {
	ok := TestConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("TestConfig should validate: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig should validate: %v", err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatalf("PaperConfig should validate: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.NumParties = 0 },
		func(c *Config) { c.QueriesPerParty = -1 },
		func(c *Config) { c.DocsPerParty = 0 },
		func(c *Config) { c.VocabSize = 10 },
		func(c *Config) { c.NumTopics = 0 },
		func(c *Config) { c.DocLen = 0 },
		func(c *Config) { c.TitleLen = -1 },
		func(c *Config) { c.QueryMinTerms = 0 },
		func(c *Config) { c.QueryMaxTerms = c.QueryMinTerms - 1 },
		func(c *Config) { c.TopicMix = 1.5 },
		func(c *Config) { c.TitleTopicMix = -0.1 },
		func(c *Config) { c.ZipfExponent = 0 },
		func(c *Config) { c.SalientPerTopic = 1 },
		func(c *Config) { c.HighCut = 0 },
		func(c *Config) { c.RelevantCut = c.HighCut - 1 },
		func(c *Config) { c.LabelNoise = []float64{0.5} },
		func(c *Config) { c.LabelNoise = []float64{0, 0, 0, 2} },
		func(c *Config) { c.BM25K1 = 0 },
		func(c *Config) { c.BM25B = 1.5 },
	}
	for i, mut := range mutations {
		c := TestConfig()
		mut(&c)
		if err := c.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("mutation %d: expected ErrBadConfig, got %v", i, err)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := TestConfig()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Parties) != cfg.NumParties {
		t.Fatalf("parties = %d", len(c.Parties))
	}
	if c.TotalDocs() != cfg.NumParties*cfg.DocsPerParty {
		t.Fatalf("docs = %d", c.TotalDocs())
	}
	if c.TotalQueries() != cfg.NumParties*cfg.QueriesPerParty {
		t.Fatalf("queries = %d", c.TotalQueries())
	}
	for _, p := range c.Parties {
		for i, d := range p.Docs {
			if d.ID != i {
				t.Fatalf("doc ids must be dense local indexes, got %d at %d", d.ID, i)
			}
			if d.Len() != cfg.DocLen || len(d.Title) != cfg.TitleLen {
				t.Fatalf("doc lengths wrong: %d/%d", d.Len(), len(d.Title))
			}
			if d.Topic < 0 || d.Topic >= cfg.NumTopics {
				t.Fatalf("doc topic out of range: %d", d.Topic)
			}
		}
		for i, q := range p.Queries {
			if q.ID != i {
				t.Fatalf("query ids must be dense")
			}
			n := len(q.UniqueTerms())
			if n < cfg.QueryMinTerms || n > cfg.QueryMaxTerms {
				t.Fatalf("query term count %d outside [%d,%d]", n, cfg.QueryMinTerms, cfg.QueryMaxTerms)
			}
		}
	}
	if got := c.AverageDocLen(); math.Abs(got-float64(cfg.DocLen)) > 1e-9 {
		t.Fatalf("avg doc len %v", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := TestConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range a.Parties {
		for di, d := range a.Parties[pi].Docs {
			d2 := b.Parties[pi].Docs[di]
			if d.Topic != d2.Topic || len(d.Body) != len(d2.Body) {
				t.Fatal("corpora differ between identical-seed generations")
			}
			for i := range d.Body {
				if d.Body[i] != d2.Body[i] {
					t.Fatal("document bodies differ")
				}
			}
		}
	}
	qa := QueryRef{Party: 0, Query: 0}
	ra, rb := a.GroundTruth(qa), b.GroundTruth(qa)
	if len(ra) != len(rb) {
		t.Fatal("ground truth differs")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("ground-truth ranking differs")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := TestConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 2
	b, _ := Generate(cfg)
	same := true
	d1, d2 := a.Parties[0].Docs[0], b.Parties[0].Docs[0]
	for i := range d1.Body {
		if d1.Body[i] != d2.Body[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical first document")
	}
}

func TestGroundTruthLabels(t *testing.T) {
	cfg := TestConfig()
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	anyHigh := false
	for _, p := range c.Parties {
		for _, q := range p.Queries {
			qref := QueryRef{Party: p.Index, Query: q.ID}
			ranked := c.GroundTruth(qref)
			if len(ranked) == 0 {
				t.Fatalf("query %v has empty ground truth", qref)
			}
			if len(ranked) > cfg.RelevantCut {
				t.Fatalf("ground truth longer than RelevantCut: %d", len(ranked))
			}
			for i, sd := range ranked {
				if i > 0 && sd.Score > ranked[i-1].Score {
					t.Fatal("ground truth not sorted by score")
				}
				wantLabel := 1
				if i < cfg.HighCut {
					wantLabel = 2
					anyHigh = true
				}
				if sd.Label != wantLabel {
					t.Fatalf("rank %d label %d, want %d", i, sd.Label, wantLabel)
				}
				if got := c.Label(qref, sd.Ref); got != wantLabel {
					t.Fatalf("Label lookup %d, want %d", got, wantLabel)
				}
			}
		}
	}
	if !anyHigh {
		t.Fatal("no highly-relevant labels generated at all")
	}
	// Unranked documents are label 0.
	if got := c.Label(QueryRef{0, 0}, DocRef{Party: 0, Doc: cfg.DocsPerParty - 1}); got != 0 && got != 1 && got != 2 {
		t.Fatalf("label out of domain: %d", got)
	}
}

// TestCrossPartyRelevance: the point of the cross-partitioned setting is
// that queries have relevant documents at *other* parties.
func TestCrossPartyRelevance(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	total := 0
	for _, p := range c.Parties {
		for _, q := range p.Queries {
			for _, sd := range c.GroundTruth(QueryRef{Party: p.Index, Query: q.ID}) {
				total++
				if sd.Ref.Party != p.Index {
					cross++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no relevant documents at all")
	}
	frac := float64(cross) / float64(total)
	// With 4 parties and uniform assignment ~3/4 of relevant docs should
	// be cross-party.
	if frac < 0.4 {
		t.Fatalf("only %.2f of relevant docs are cross-party; corpus is not cross-partitioned", frac)
	}
}

// TestTopicCoherence: ground-truth relevant documents should mostly share
// the query's topic — that is what makes the synthetic corpus a valid
// stand-in for topical web data.
func TestTopicCoherence(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	match, total := 0, 0
	for _, p := range c.Parties {
		for _, q := range p.Queries {
			ranked := c.GroundTruth(QueryRef{Party: p.Index, Query: q.ID})
			for i, sd := range ranked {
				if i >= c.Cfg.HighCut {
					break // only check the high-relevance head
				}
				doc := c.Parties[sd.Ref.Party].Docs[sd.Ref.Doc]
				if doc.Topic == q.Topic {
					match++
				}
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no head results")
	}
	if frac := float64(match) / float64(total); frac < 0.7 {
		t.Fatalf("only %.2f of top documents share the query topic", frac)
	}
}

// TestZipfianBodies: document term frequencies should be heavy-tailed;
// fitting a Zipf exponent to the aggregate counts should give something
// in a plausible range (the generator mixes topic and background).
func TestZipfianBodies(t *testing.T) {
	c, err := Generate(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[textkit.TermID]float64)
	for _, d := range c.Parties[0].Docs {
		for term, n := range d.BodyCounts() {
			counts[term] += float64(n)
		}
	}
	freqs := make([]float64, 0, len(counts))
	for _, f := range counts {
		freqs = append(freqs, f)
	}
	s := zipf.FitExponent(freqs)
	if s < 0.4 || s > 2.5 {
		t.Fatalf("aggregate term distribution not Zipf-like: fitted exponent %v", s)
	}
}

func TestLabelNoise(t *testing.T) {
	cfg := TestConfig()
	cfg.LabelNoise = []float64{0, 0, 1.0, 1.0} // parties 2,3 fully noisy
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clean party: local labels match ground truth.
	for _, q := range c.Parties[0].Queries {
		qref := QueryRef{Party: 0, Query: q.ID}
		for _, sd := range c.GroundTruth(qref) {
			if sd.Ref.Party != 0 {
				continue
			}
			if c.LocalLabel(qref, sd.Ref) != c.Label(qref, sd.Ref) {
				t.Fatal("clean party has corrupted local labels")
			}
		}
	}
	// Fully noisy party: every local positive label must be downgraded.
	downgraded, localPositives := 0, 0
	for _, q := range c.Parties[2].Queries {
		qref := QueryRef{Party: 2, Query: q.ID}
		for _, sd := range c.GroundTruth(qref) {
			if sd.Ref.Party != 2 {
				continue
			}
			localPositives++
			if c.LocalLabel(qref, sd.Ref) < c.Label(qref, sd.Ref) {
				downgraded++
			}
		}
	}
	if localPositives == 0 {
		t.Skip("no local positives for noisy party in this tiny corpus")
	}
	if downgraded != localPositives {
		t.Fatalf("noise=1.0 should downgrade all %d local positives, got %d", localPositives, downgraded)
	}
}

// TestLabelNoiseDeterministic: the corrupted-label set must be identical
// across generations with the same seed (regression test: iterating the
// label map while drawing noise made every downstream experiment
// nondeterministic).
func TestLabelNoiseDeterministic(t *testing.T) {
	cfg := TestConfig()
	cfg.LabelNoise = []float64{0.5, 0.5, 0.5, 0.5}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range a.Parties {
		for _, q := range p.Queries {
			qref := QueryRef{Party: pi, Query: q.ID}
			for _, sd := range a.GroundTruth(qref) {
				la := a.LocalLabel(qref, sd.Ref)
				lb := b.LocalLabel(qref, sd.Ref)
				if la != lb {
					t.Fatalf("local label of %v/%v differs across identical generations: %d vs %d",
						qref, sd.Ref, la, lb)
				}
			}
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	cfg := TestConfig()
	cfg.NumParties = 0
	if _, err := Generate(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("expected ErrBadConfig, got %v", err)
	}
}

func BenchmarkGenerateDefault(b *testing.B) {
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
