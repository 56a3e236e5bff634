package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// scale selects the corpus and op-list sizes: the benchmark's own, or a
// tiny one for the go tests.
type scale int

const (
	scaleBench scale = iota
	scaleTest
)

// op is one closed-loop operation on one corpus query. Search workloads
// search it; ingest_churn adds spare documents [lo, hi) at party,
// searches it, then removes the documents; augment_train augments it on
// behalf of party.
type op struct {
	query         query
	party, lo, hi int
}

// answer is what an op returned, kept for verification: a search
// workload's ranking or augment_train's augmentation.
type answer struct {
	search *searchAnswer
	aug    *augAnswer
}

// workload is one deterministic closed-loop workload: a topology, a
// fixed op list and the function that runs one op.
type workload struct {
	name string
	// opsAt12 is the op count of one pass at --seconds 12, sized so a
	// pass takes about four seconds on the commit that added the
	// benchmark; other durations scale it linearly.
	opsAt12 int
	// exactCounts: with the cache state periodic in the op list and no
	// noise-dependent control flow, every pass must spend exactly the
	// same epsilon and hit the cache exactly as often.
	exactCounts bool
	config      func(sc scale, ops int) topoConfig
	plan        func(t *topology, n int) []op
	run         func(t *topology, o *op) (*answer, error)
}

func (w *workload) ops(sc scale, seconds int) int {
	if sc == scaleTest {
		return 12
	}
	n := w.opsAt12 * seconds / 12
	if n < 8 {
		n = 8
	}
	return n
}

// baseConfig is the corpus every search workload shares: four data
// parties of 1200 documents of 120 terms behind a querier, 4-term
// queries.
func baseConfig(sc scale) topoConfig {
	cfg := topoConfig{
		dataParties: 4, querier: true,
		docs: 1200, docLen: 120,
		queries: 100, minTerms: 4, maxTerms: 4,
		epsilon: epsilon,
	}
	if sc == scaleTest {
		cfg.dataParties, cfg.docs, cfg.docLen, cfg.queries = 3, 128, 60, 12
	}
	return cfg
}

var errNoHits = errors.New("search returned no hits")

// checkSearch applies the failure rule to one search answer: an empty
// or over-long hit list fails the op.
func checkSearch(a *searchAnswer, err error) (*searchAnswer, error) {
	if err != nil {
		return nil, err
	}
	if len(a.hits) == 0 {
		return nil, errNoHits
	}
	if len(a.hits) > searchK {
		return nil, fmt.Errorf("search returned %d hits, want at most %d", len(a.hits), searchK)
	}
	return a, nil
}

// pool lists the first n corpus queries, in corpus order (wrapping round
// a smaller corpus). Every op list is a fixed trace over them, so that
// runs with different seeds measure the same work and differ only in the
// protocol's own randomness.
func pool(t *topology, n int) []query {
	all := t.queryPool()
	out := make([]query, n)
	for i := range out {
		out[i] = all[i%len(all)]
	}
	return out
}

var workloads = []*workload{
	{
		name:        "search_cold",
		opsAt12:     130,
		exactCounts: true,
		config:      func(sc scale, _ int) topoConfig { return baseConfig(sc) },
		plan: func(t *topology, n int) []op {
			ops := make([]op, n)
			for i, q := range pool(t, n) {
				ops[i].query = q
			}
			return ops
		},
		run: func(t *topology, o *op) (*answer, error) {
			a, err := checkSearch(t.search(o.query.terms))
			return &answer{search: a}, err
		},
	},
	{
		name:        "gateway_zipf",
		opsAt12:     110,
		exactCounts: true,
		config: func(sc scale, _ int) topoConfig {
			cfg := baseConfig(sc)
			cfg.http = true
			cfg.docs = 400
			cfg.topics = 100
			cfg.minTerms, cfg.maxTerms = 2, 2
			cfg.cacheBytes = 192 << 10
			if sc == scaleTest {
				// On the tiny corpus an answer's length, and so its cache
				// footprint, moves with the noise: evictions would differ
				// from pass to pass. Large enough to never evict.
				cfg.cacheBytes = 1 << 20
			}
			return cfg
		},
		plan: func(t *topology, n int) []op {
			queries := pool(t, zipfRanks)
			var ops []op
			for r, c := range zipfCounts(n, zipfRanks, zipfExponent, zipfOffset) {
				for ; c > 0; c-- {
					ops = append(ops, op{query: queries[r]})
				}
			}
			// One fixed interleaving: which repeats find their answer still
			// cached depends on it, and so would every count metric.
			rand.New(rand.NewSource(fixedSeed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			return ops
		},
		run: func(t *topology, o *op) (*answer, error) {
			a, err := checkSearch(t.gatewaySearch(t.userClient, t.gatewayURL, t.names[0], o.query.terms))
			return &answer{search: a}, err
		},
	},
	{
		name:    "augment_train",
		opsAt12: 180,
		config: func(sc scale, ops int) topoConfig {
			cfg := baseConfig(sc)
			cfg.querier = false
			cfg.stats = true
			cfg.minTerms, cfg.maxTerms = 2, 5
			// Enough queries that the training split of every party
			// together covers the op list.
			perParty := (ops + cfg.dataParties - 1) / cfg.dataParties
			cfg.queries = int(float64(perParty)/trainFrac) + 2
			return cfg
		},
		plan: func(t *topology, n int) []op {
			// Party by party, each its own training queries in corpus
			// order, as the pipeline runs it.
			var ops []op
			for _, q := range t.queryPool() {
				if q.ref.query < t.trainSplit() && len(ops) < n {
					ops = append(ops, op{query: q, party: q.ref.party})
				}
			}
			return ops
		},
		run: func(t *topology, o *op) (*answer, error) {
			a, err := t.augment(t.fed, o.party, o.query.terms, nil)
			if err == nil && len(a.vectors) == 0 {
				err = errors.New("augmentation found no candidate")
			}
			return &answer{aug: a}, err
		},
	},
	{
		name:        "ingest_churn",
		opsAt12:     112,
		exactCounts: true,
		config: func(sc scale, _ int) topoConfig {
			cfg := baseConfig(sc)
			cfg.docs = 256
			cfg.shards, cfg.replicas = 4, 2
			cfg.cacheBytes = 64 << 20
			if sc == scaleTest {
				cfg.docs = 128
			}
			return cfg
		},
		plan: func(t *topology, n int) []op {
			// The hot query changes every cycle, the written party every
			// churnHotPool cycles: when a query comes round again, two of
			// the four parties have changed since its answer was cached,
			// so half of its per-party answers replay and half recompute.
			hot := pool(t, churnHotPool)
			ops := make([]op, n)
			for c := range ops {
				lo := t.cfg.docs + c%spareDocs
				ops[c] = op{
					query: hot[c%churnHotPool],
					party: c / churnHotPool % t.cfg.dataParties,
					lo:    lo, hi: lo + 1,
				}
			}
			return ops
		},
		run: func(t *topology, o *op) (*answer, error) {
			if err := t.ingest(o.party, o.lo, o.hi); err != nil {
				return nil, err
			}
			a, err := checkSearch(t.search(o.query.terms))
			// Always remove: a failed search must not leave the corpus
			// grown for the ops that follow.
			if rerr := t.remove(o.party, o.lo, o.hi); err == nil {
				err = rerr
			}
			return &answer{search: a}, err
		},
	},
}

// churnHotPool is the number of hot queries ingest_churn searches
// round-robin, one per cycle of one document in, one search, the
// document out.
const churnHotPool = 4

// The gateway_zipf stream draws rank r with weight (zipfOffset+r)^-zipfExponent.
const (
	zipfRanks    = 400
	zipfExponent = 1.1
	zipfOffset   = 3
)

// zipfCounts spreads n draws over ranks 0..ranks-1 in proportion to the
// Zipf weights, by largest remainder: the stream has the distribution's
// expected frequencies exactly, so the share of repeats does not vary
// from seed to seed the way a sampled stream's would.
func zipfCounts(n, ranks int, s, v float64) []int {
	weights := make([]float64, ranks)
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(v+float64(r), -s)
		sum += weights[r]
	}
	counts := make([]int, ranks)
	order := make([]int, ranks)
	left := n
	for r := range weights {
		weights[r] *= float64(n) / sum
		counts[r] = int(weights[r])
		weights[r] -= float64(counts[r])
		left -= counts[r]
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return weights[order[i]] > weights[order[j]] })
	for _, r := range order[:left] {
		counts[r]++
	}
	return counts
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
