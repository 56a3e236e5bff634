package federation

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
)

// benchFed builds a two-party federation with a few hundred documents at
// party B.
func benchFed(b *testing.B) *Federation {
	b.Helper()
	p := core.DefaultParams()
	p.Epsilon = 0
	p.K = 20
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		b.Fatal(err)
	}
	party, _ := fed.Party("B")
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 400; id++ {
		body := make([]textkit.TermID, 80)
		for j := range body {
			body[j] = textkit.TermID(rng.Intn(3000))
		}
		if id%3 == 0 {
			body[0] = 9999 // probe term
		}
		if err := party.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
			b.Fatal(err)
		}
	}
	return fed
}

// BenchmarkInProcessRTK measures one reverse top-K through the
// in-process routed transport.
func BenchmarkInProcessRTK(b *testing.B) {
	fed := benchFed(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fed.ReverseTopK("A", "B", FieldBody, 9999, 20, true); err != nil {
			b.Fatal(err)
		}
	}
}

// geometryFed builds a two-party federation at the geometry of the
// repo benchmark's gateway workload: default sketch parameters, K = 50,
// Epsilon = 0.5, and 400 documents of 120 terms at party B, enough to
// fill every addressed RTK cell (30 cells of 250 entries per answer).
func geometryFed(tb testing.TB) *Federation {
	tb.Helper()
	p := core.DefaultParams()
	p.K = 50
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		tb.Fatal(err)
	}
	party, _ := fed.Party("B")
	rng := rand.New(rand.NewSource(1))
	for id := 0; id < 400; id++ {
		body := make([]textkit.TermID, 120)
		for j := range body {
			body[j] = textkit.TermID(rng.Intn(3000))
		}
		if err := party.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
			tb.Fatal(err)
		}
	}
	return fed
}

// BenchmarkHTTPRTK measures one reverse top-K through an HTTP remote at
// the benchmark geometry, rotating over 64 terms on a transport of its
// own (loopback).
func BenchmarkHTTPRTK(b *testing.B) {
	fed := geometryFed(b)
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	a, _ := fed.Party("A")
	remote := NewHTTPOwner(ts.URL, "B", FieldBody, &http.Client{Transport: transport})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RTKReverseTopK(a.Querier(), remote, uint64(i%64), 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewaySearch measures one cold two-term search in the
// topology of the repo benchmark's gateway workload, at its geometry:
// the data party behind an HTTP listener of its own, a coordinator that
// reaches it as an HTTP remote, and a client that POSTs /v1/search to
// the coordinator's gateway. The cache is off and the terms rotate, so
// every search pays its exchange with the party — one, carrying both
// terms.
func BenchmarkGatewaySearch(b *testing.B) {
	fed := geometryFed(b)
	a, _ := fed.Party("A")
	party, _ := fed.Party("B")
	host := NewServer()
	if err := host.Register(party); err != nil {
		b.Fatal(err)
	}
	hostTS := httptest.NewServer(HTTPHandler(host))
	defer hostTS.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	coord := NewServer()
	if err := coord.Register(a); err != nil {
		b.Fatal(err)
	}
	if err := coord.RegisterHTTPRemote("B", hostTS.URL, client); err != nil {
		b.Fatal(err)
	}
	gateway := Assemble(coord, fed.Parties, fed.Params, fed.HashSeed)
	gatewayTS := httptest.NewServer(HTTPHandler(coord))
	defer gatewayTS.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"from":"A","terms":[%d,%d],"k":10}`, 2*(i%32), 2*(i%32)+1)
		resp, err := client.Post(gatewayTS.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		closeBody(resp)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("search %d: status %d", i, resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(exchangesSent(gateway))/float64(b.N), "exchanges/op")
}

// BenchmarkFederatedSearchCPU measures whole-query searches with
// in-process owners and no simulated network: pure compute, the regime
// where parallel dispatch only pays off with multiple physical cores.
// small is a three-term search of one 400-document party; geometry is
// the scorecard's search_cold shape (searchGeometryFed), four terms
// rotating so that no two searches repeat.
func BenchmarkFederatedSearchCPU(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		fed := benchFed(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fed.Search("A", []uint64{9999, 17, 23}, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("geometry", func(b *testing.B) {
		fed := searchGeometryFed(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := uint64(4 * (i % 750))
			if _, err := fed.Search("Q", []uint64{n, n + 1, n + 2, n + 3}, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFedN builds a federation with a querier party Q plus `parties`
// data parties of 150 documents each, and a simulated per-message WAN
// round trip of rtt on every data party's link (cross-silo parties are
// network-separated; see Server.SetPartyLink).
func benchFedN(b *testing.B, parties int, rtt time.Duration) *Federation {
	b.Helper()
	p := core.DefaultParams()
	p.Epsilon = 0
	p.K = 20
	names := []string{"Q"}
	for i := 0; i < parties; i++ {
		names = append(names, fmt.Sprintf("P%d", i))
	}
	fed, err := NewDeterministic(names, p, 42, 7)
	if err != nil {
		b.Fatal(err)
	}
	for pi, party := range fed.Parties[1:] {
		rng := rand.New(rand.NewSource(int64(pi) + 1))
		docs := make([]core.DocCounts, 150)
		for id := range docs {
			counts := make(map[uint64]int64)
			for j := 0; j < 40; j++ {
				counts[uint64(rng.Intn(3000))]++
			}
			docs[id] = core.DocCounts{DocID: id, Counts: counts}
		}
		if err := party.Owner(FieldBody).AddDocuments(docs); err != nil {
			b.Fatal(err)
		}
	}
	for _, party := range fed.Parties[1:] {
		fed.Server.SetPartyLink(party.Name, rtt)
	}
	return fed
}

// BenchmarkFederatedSearch measures the query fan-out in the cross-silo
// regime: every exchange with a party crosses its link once, at a
// simulated 2ms WAN round trip, and a search sends a party one exchange
// whatever its number of terms — exchanges/op is the party count — so
// what the worker pool overlaps is parties. The workers=1 entries are
// the sequential baseline; result equality across pool sizes is asserted
// by TestFederatedSearchParallelMatchesSequential.
func BenchmarkFederatedSearch(b *testing.B) {
	const rtt = 2 * time.Millisecond
	terms := []uint64{17, 23, 99}
	for _, parties := range []int{2, 4, 8} {
		fed := benchFedN(b, parties, rtt)
		for _, workers := range []int{1, 4, 8} {
			if workers > parties {
				continue
			}
			fed.Params.Parallelism = workers
			b.Run(fmt.Sprintf("parties=%d/workers=%d", parties, workers), func(b *testing.B) {
				b.ReportAllocs()
				sent := exchangesSent(fed)
				for i := 0; i < b.N; i++ {
					if _, err := fed.Search("Q", terms, 20); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(exchangesSent(fed)-sent)/float64(b.N), "exchanges/op")
			})
		}
	}
}
