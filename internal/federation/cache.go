package federation

import (
	"time"

	"csfltr/internal/core"
	"csfltr/internal/qcache"
)

// Federated answer cache (see internal/qcache and DESIGN.md §12).
//
// Two tiers of released noisy answers are cached:
//
//   - task tier: one party's RTK answer to one (querier, term) query —
//     the unit the degraded-mode stale-serve backfills from;
//   - query tier: a whole merged SearchResult — the unit a repeated hot
//     query replays bit-identically without any fan-out.
//
// Both are DP post-processing of answers that already left the owner,
// so a hit spends zero additional privacy budget (dp.Accountant
// records it as a replay instead).
//
// Keys never contain raw terms or party-private state: they are keyed
// hashes over the logical query identity (querier, answering party,
// term id, protocol parameters, ingest generation) under lanes derived
// from the federation hash seed. Ingestion bumps the owner generation,
// which is folded into every full key, so corpus changes invalidate
// cached answers without any explicit flush.

// Cache key domains, one per tier. The values are part of every key's
// bytes and so decide shard placement and eviction order inside qcache:
// never renumber them.
const (
	keyKindSearchTask uint64 = iota + 1
	keyKindSearchQuery
)

// cachedTask is one cached (party, term) RTK answer: the recovered
// document estimates plus the communication cost the original exchange
// paid. Replays re-report the recorded cost so warm results stay
// bit-identical to the cold ones; the telemetry relay counters remain
// the ground truth for bytes actually moved.
type cachedTask struct {
	docs []core.DocCount
	cost core.Cost
}

// cachedTaskSize estimates the resident bytes of one task entry.
func cachedTaskSize(docs []core.DocCount) int64 {
	return 64 + 16*int64(len(docs))
}

// searchResultSize estimates the resident bytes of one merged result.
func searchResultSize(res *SearchResult) int64 {
	n := int64(96)
	n += 40 * int64(len(res.Hits))
	for i := range res.Parties {
		n += 96 + int64(len(res.Parties[i].Party)+len(res.Parties[i].Err))
	}
	return n
}

// cloneSearchResult deep-copies a cached result so callers can own
// their slices (cache entries and singleflight followers share the
// stored value).
func cloneSearchResult(res *SearchResult) *SearchResult {
	out := *res
	out.Hits = append([]SearchHit(nil), res.Hits...)
	out.Parties = append([]PartyReport(nil), res.Parties...)
	return &out
}

// cache returns the federation's answer cache, constructing it on first
// use, or nil when Params.CacheBytes is 0 — the cache-off configuration
// runs exactly the pre-cache code path.
func (f *Federation) cache() *qcache.Cache {
	if f.Params.CacheBytes <= 0 {
		return nil
	}
	f.cacheOnce.Do(func() {
		qc := qcache.New(f.Params.CacheBytes)
		f.flight = qcache.NewGroup(qc)
		f.keyer = qcache.NewKeyer(f.HashSeed)
		m := f.Server.metrics()
		m.gaugeFunc(MetricCacheSizeBytes, func() float64 { return float64(qc.Bytes()) })
		m.gaugeFunc(MetricCacheEntries, func() float64 { return float64(qc.Len()) })
		f.Server.setCacheStats(qc.Stats)
		f.qc = qc
	})
	return f.qc
}

// CacheStats returns the answer cache's counters (zero Stats when the
// cache is disabled).
func (f *Federation) CacheStats() qcache.Stats {
	c := f.cache()
	if c == nil {
		return qcache.Stats{}
	}
	return c.Stats()
}

// foldGens folds a backend's ingest generation vector into a key: the
// component count then every component. A sharded party contributes one
// component per shard, so a mutation invalidates only full keys bound
// to the owning shard's moved component; a 1 × 1 party contributes its
// owner's single scalar generation.
func foldGens(b *qcache.Builder, gens []uint64) *qcache.Builder {
	b.Int(len(gens))
	for _, g := range gens {
		b.U64(g)
	}
	return b
}

// taskKeys derives the full (generation-bound) and base (stale-lookup)
// keys of one search task answer. gens is the answering party's
// generation vector (nil for the generation-free base lookup).
func (f *Federation) taskKeys(from, party string, term uint64, gens []uint64) (full, base qcache.Key) {
	begin := func() *qcache.Builder {
		return f.keyer.Begin(keyKindSearchTask).
			String(from).String(party).Int(int(FieldBody)).
			U64(term).F64(f.Params.Epsilon).Int(f.Params.K)
	}
	return foldGens(begin(), gens).Key(), begin().Key()
}

// queryKeys derives the keys of a whole merged search. The full key
// binds every answering party's ingest generation, so any ingest
// anywhere invalidates the merged entry; terms are already deduplicated
// in first-seen order, which the key preserves (term order affects
// nothing downstream, but a canonical order costs a sort and first-seen
// is already canonical per caller).
func (f *Federation) queryKeys(from string, terms []uint64, k int) (full, base qcache.Key) {
	fb := f.keyer.Begin(keyKindSearchQuery).
		String(from).Int(k).F64(f.Params.Epsilon).Int(f.Params.MinParties)
	bb := f.keyer.Begin(keyKindSearchQuery).
		String(from).Int(k).F64(f.Params.Epsilon).Int(f.Params.MinParties)
	for _, t := range terms {
		fb.U64(t)
		bb.U64(t)
	}
	for _, p := range f.Parties {
		if p.Name == from {
			continue
		}
		foldGens(fb.String(p.Name), p.groups[FieldBody].Generations())
		bb.String(p.Name)
	}
	return fb.Key(), bb.Key()
}

// staleBackfill tries to serve a lost party from recent cache entries:
// every one of the search's terms must have a base-key entry younger
// than Params.CacheMaxStale, or the party stays lost (a partially
// backfilled party would re-introduce the ranking's dependence on which
// queries happened to be cached — the same reason the live merge is
// all-or-nothing per party). Returns the per-term answers and the age
// of the oldest one. Serving from cache re-releases bytes that were
// already paid for when first fetched, so this is the zero-epsilon
// replay contract.
//
//csfltr:replay
func (f *Federation) staleBackfill(c *qcache.Cache, from, party string, terms []uint64) ([]cachedTask, time.Duration, bool) {
	out := make([]cachedTask, 0, len(terms))
	var oldest time.Duration
	for _, term := range terms {
		_, base := f.taskKeys(from, party, term, nil)
		v, age, ok := c.GetStale(base, f.Params.CacheMaxStale)
		if !ok {
			return nil, 0, false
		}
		if age > oldest {
			oldest = age
		}
		out = append(out, v.(cachedTask))
	}
	return out, oldest, true
}
