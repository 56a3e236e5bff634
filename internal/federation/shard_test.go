package federation

import (
	"math/rand"
	"reflect"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
)

// shardTestDocs builds a deterministic per-party corpus whose document
// ids spread across doc-range blocks (ids stride past the default
// shard block size), so every shard of a sharded party actually holds
// documents.
func shardTestDocs(n int, rngSeed int64) []*textkit.Document {
	rng := rand.New(rand.NewSource(rngSeed))
	docs := make([]*textkit.Document, n)
	for i := range docs {
		body := make([]textkit.TermID, 0, 14)
		for t := 0; t < 14; t++ {
			body = append(body, textkit.TermID(rng.Intn(30)))
		}
		id := i*64 + rng.Intn(40)
		docs[i] = textkit.NewDocument(id, -1, []textkit.TermID{textkit.TermID(100 + i)}, body)
	}
	return docs
}

// shardTestFed builds an A/B/C federation at the given shard/replica
// fan with identical corpora, seeds and randomness at every fan.
func shardTestFed(t *testing.T, shards, replicas int) *Federation {
	t.Helper()
	p := testParams()
	p.Shards = shards
	p.Replicas = replicas
	return shardTestFedParams(t, p)
}

// shardTestFedParams is shardTestFed under caller-chosen parameters.
func shardTestFedParams(t *testing.T, p core.Params) *Federation {
	t.Helper()
	fed, err := NewDeterministic([]string{"A", "B", "C"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	c, _ := fed.Party("C")
	if err := b.IngestAllParallel(shardTestDocs(24, 501), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.IngestAllParallel(shardTestDocs(16, 502), 0); err != nil {
		t.Fatal(err)
	}
	return fed
}

// shardTestTerms is the query mix every fan is compared under.
var shardTestTerms = [][]uint64{
	{3, 7},
	{1, 4, 9},
	{12, 3},
	{20},
	{5, 5, 8},
}

// TestShardedSearchBitIdentical is the federation-level determinism
// contract of the party backends: whole SearchResults — hits, merged
// cost, per-party reports — are bit-identical across 1, 2 and 4 shards
// (with and without replicas) and the default party (Shards and
// Replicas 0, a 1 × 1 group), including after a document removal. It
// holds with DP off and at ε = 0.5: every fan draws one noise sample per
// released answer from the same seeded stream, in the same order.
func TestShardedSearchBitIdentical(t *testing.T) {
	for _, eps := range []float64{0, 0.5} {
		p := testParams()
		p.Epsilon = eps
		ref := shardTestFedParams(t, p)
		var want []*SearchResult
		for _, terms := range shardTestTerms {
			res, err := ref.Search("A", terms, 5)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
		refB, _ := ref.Party("B")
		victim := refB.Group(FieldBody).DocIDs()[5]
		if err := refB.RemoveDocument(victim); err != nil {
			t.Fatal(err)
		}
		wantAfter, err := ref.Search("A", shardTestTerms[1], 5)
		if err != nil {
			t.Fatal(err)
		}

		for _, fan := range []struct{ shards, replicas int }{
			{1, 1}, {2, 1}, {2, 2}, {4, 1}, {4, 2},
		} {
			p.Shards, p.Replicas = fan.shards, fan.replicas
			fed := shardTestFedParams(t, p)
			b, _ := fed.Party("B")
			if sharded := fan.shards > 1 || fan.replicas > 1; sharded != (b.Owner(FieldBody) == nil) {
				t.Fatalf("eps %v fan %+v: Owner(FieldBody) = %v, want nil only above 1 × 1", eps, fan, b.Owner(FieldBody))
			}
			for i, terms := range shardTestTerms {
				got, err := fed.Search("A", terms, 5)
				if err != nil {
					t.Fatalf("eps %v fan %+v terms %v: %v", eps, fan, terms, err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("eps %v fan %+v terms %v: SearchResult differs from the default party's:\ngot  %+v\nwant %+v",
						eps, fan, terms, got, want[i])
				}
			}
			if err := b.RemoveDocument(victim); err != nil {
				t.Fatalf("eps %v fan %+v: RemoveDocument: %v", eps, fan, err)
			}
			got, err := fed.Search("A", shardTestTerms[1], 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantAfter) {
				t.Fatalf("eps %v fan %+v: post-removal SearchResult differs from the default party's", eps, fan)
			}
		}
	}
}

// TestShardedSearchReplicaChaos is the chaos acceptance test: with a
// replica killed mid-run at a fixed seed, every search still answers
// (availability 1.0), answers stay bit-identical to an untouched
// control federation, and the trace tree of a post-kill search records
// the failover — a failed "shard.attempt" on the dead replica followed
// by a successful attempt on its peer.
func TestShardedSearchReplicaChaos(t *testing.T) {
	fed := shardTestFed(t, 2, 2)
	control := shardTestFed(t, 2, 2)
	fed.Server.EnableTracing(TraceConfig{})

	mix := func(round int) []uint64 {
		// Distinct terms per round so the shard groups' raw caches miss
		// and every round exercises live replica calls.
		return []uint64{uint64(round % 25), uint64((round*7 + 3) % 25)}
	}
	served := 0
	const rounds = 12
	var postKillTrace string
	for round := 0; round < rounds; round++ {
		if round == 4 {
			b, _ := fed.Party("B")
			b.Group(FieldBody).KillReplica(0, 0)
		}
		res, traceID, err := fed.SearchTraced("A", mix(round), 5)
		if err != nil {
			t.Fatalf("round %d: search failed after replica kill: %v", round, err)
		}
		want, err := control.Search("A", mix(round), 5)
		if err != nil {
			t.Fatal(err)
		}
		// The traced run carries per-party trace state the control does
		// not; compare the released surfaces.
		if !reflect.DeepEqual(res.Hits, want.Hits) || res.Cost != want.Cost {
			t.Fatalf("round %d: replica kill changed the answer", round)
		}
		served++
		if round == 4 {
			postKillTrace = traceID
		}
	}
	if served != rounds {
		t.Fatalf("availability %d/%d, want %d/%d", served, rounds, rounds, rounds)
	}

	spans, ok := fed.Server.TraceTree(postKillTrace)
	if !ok {
		t.Fatal("no trace tree for the post-kill search")
	}
	var failed, recovered bool
	for _, sp := range spans {
		if sp.Name != "shard.attempt" {
			continue
		}
		switch sp.Attr("outcome") {
		case "failed":
			failed = true
		case "ok":
			recovered = true
		}
	}
	if !failed || !recovered {
		t.Fatalf("post-kill trace missing failover attempts (failed=%v ok=%v)", failed, recovered)
	}
}

// TestShardedPartyMetrics checks the per-shard telemetry surface: a
// sharded federation records shard-labeled transport bytes and replica
// breaker gauges under the bounded label tables, and a 1 × 1 one — the
// default party — registers no shard-labeled series at all.
func TestShardedPartyMetrics(t *testing.T) {
	for _, tc := range []struct {
		shards, replicas int
		wantBytes        bool
		wantBreakers     int
	}{
		// 2 shards x 2 replicas x 2 fields x 3 parties (the querier's own
		// backends register too) = 24 gauges.
		{2, 2, true, 24},
		{1, 1, false, 0},
	} {
		fed := shardTestFed(t, tc.shards, tc.replicas)
		if _, err := fed.Search("A", []uint64{3, 7}, 5); err != nil {
			t.Fatal(err)
		}
		snap := fed.Server.Metrics().Snapshot()
		var shardSeries, shardBytes, breakers int
		for _, m := range snap.Metrics {
			for _, s := range m.Series {
				if s.Labels["shard"] == "" {
					continue
				}
				shardSeries++
				switch m.Name {
				case MetricTransportBytes:
					if s.Value > 0 {
						shardBytes++
					}
				case MetricBreakerState:
					breakers++
				}
			}
		}
		if (shardBytes > 0) != tc.wantBytes {
			t.Fatalf("%d x %d: %d shard-labeled transport byte series, want any: %v", tc.shards, tc.replicas, shardBytes, tc.wantBytes)
		}
		if breakers != tc.wantBreakers {
			t.Fatalf("%d x %d: replica breaker gauges = %d, want %d", tc.shards, tc.replicas, breakers, tc.wantBreakers)
		}
		if !tc.wantBytes && shardSeries != 0 {
			t.Fatalf("%d x %d: %d shard-labeled series, want none", tc.shards, tc.replicas, shardSeries)
		}
	}
}
