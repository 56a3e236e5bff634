package federation

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"csfltr/internal/core"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// TestLeaseHTTPConcurrentClients: the /rtk handler returns its reply to
// the pool once the body is written — after encoding the frame on the
// wire branch, after the JSON encoder has walked the rows it aliases on
// the other. Four clients at once, two per branch, must each read the
// answer a direct call gives at Epsilon = 0, bit for bit
// (TestHTTPWireNegotiation's comparison): a reply released before its
// body was complete is a neighbour's to overwrite — which the race
// detector, under which `make lease` runs, reports whether or not the
// bytes happen to survive.
func TestLeaseHTTPConcurrentClients(t *testing.T) {
	fed, ts := httpFed(t)
	b, _ := fed.Party("B")
	rng := rand.New(rand.NewSource(3))
	for id := 10; id < 400; id++ { // rows long enough that answers differ and take a while to write
		body := make([]textkit.TermID, 40)
		for j := range body {
			body[j] = textkit.TermID(rng.Intn(2000))
		}
		if err := b.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 12
	qs := make([]*core.TFQuery, queries)
	bodies := make([]string, queries)
	want := make([]*core.RTKResponse, queries)
	entries := 0
	for i := range qs {
		cols := make([]uint32, testParams().Z)
		for a := range cols {
			cols[a] = uint32((i*53 + a*17 + 1) % testParams().W)
		}
		qs[i] = &core.TFQuery{Cols: cols}
		body, _ := json.Marshal(httpRTKRequest{Cols: cols})
		bodies[i] = string(body)
		if want[i], err = direct.AnswerRTK(qs[i]); err != nil {
			t.Fatal(err)
		}
		for _, c := range want[i].Cells {
			entries += len(c.IDs)
		}
	}
	if entries == 0 {
		t.Fatal("the queries addressed only empty cells; the comparison is vacuous")
	}
	same := func(got []core.RTKCell, i int) error {
		if len(got) != len(want[i].Cells) {
			return fmt.Errorf("query %d: %d cells, want %d", i, len(got), len(want[i].Cells))
		}
		for a, c := range want[i].Cells {
			if !slices.Equal(got[a].IDs, c.IDs) || !slices.Equal(got[a].Values, c.Values) {
				return fmt.Errorf("query %d cell %d diverged:\n got %+v\nwant %+v", i, a, got[a], c)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			owner := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
			for n := 0; n < 40; n++ {
				i := (client*7 + n) % queries
				if client%2 == 0 {
					got, err := owner.AnswerRTK(qs[i])
					if err == nil {
						err = same(got.Cells, i)
					}
					if err != nil {
						t.Error(err)
						return
					}
					got.Release() // the decoded replies change hands too
					continue
				}
				var raw httpRTKResponse
				if err := postJSON(ts.URL+"/v1/parties/B/body/rtk", bodies[i], &raw); err != nil {
					t.Error(err)
					return
				}
				cells := make([]core.RTKCell, len(raw.Cells))
				for a, c := range raw.Cells {
					cells[a] = core.RTKCell{IDs: c.IDs, Values: c.Values}
				}
				if err := same(cells, i); err != nil {
					t.Error(err)
					return
				}
			}
		}(client)
	}
	wg.Wait()
}

// TestLeaseHTTPTFRoutes: the /tf handler returns its TF reply to the
// pool once the body is encoded — after the wire frame is appended on one
// branch, after the JSON encoder has read the values it aliases on the
// other — and the wire client hands its decoded replies on to a holder
// that releases them. Four clients at once, two per branch, must each
// read the values a direct call gives at Epsilon = 0; a reply released
// before its body was complete is the next answer's to overwrite, which
// the race detector (`make lease`) reports whether or not the values
// happen to survive.
func TestLeaseHTTPTFRoutes(t *testing.T) {
	fed, ts := httpFed(t)
	b, _ := fed.Party("B")
	rng := rand.New(rand.NewSource(5))
	for id := 10; id < 60; id++ {
		body := make([]textkit.TermID, 40)
		for j := range body {
			body[j] = textkit.TermID(rng.Intn(300))
		}
		if err := b.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
			t.Fatal(err)
		}
	}
	direct, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	const queries = 12
	type tfCase struct {
		doc  int
		q    *core.TFQuery
		body string
		want []float64
	}
	cases := make([]tfCase, queries)
	nonzero := 0
	for i := range cases {
		cols := make([]uint32, testParams().Z)
		for a := range cols {
			cols[a] = uint32((i*37 + a*11 + 3) % testParams().W)
		}
		c := tfCase{doc: 10 + 4*i, q: &core.TFQuery{Cols: cols}}
		body, _ := json.Marshal(httpTFRequest{DocID: c.doc, Cols: cols})
		c.body = string(body)
		resp, err := direct.AnswerTF(c.doc, c.q)
		if err != nil {
			t.Fatal(err)
		}
		c.want = slices.Clone(resp.Values)
		resp.Release()
		for _, v := range c.want {
			if v != 0 {
				nonzero++
			}
		}
		cases[i] = c
	}
	if nonzero == 0 {
		t.Fatal("the queries addressed only empty cells; the comparison is vacuous")
	}
	var wg sync.WaitGroup
	for client := 0; client < 4; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			owner := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
			for n := 0; n < 40; n++ {
				c := cases[(client*5+n)%queries]
				var got []float64
				if client%2 == 0 {
					resp, err := owner.AnswerTF(c.doc, c.q)
					if err != nil {
						t.Error(err)
						return
					}
					got = slices.Clone(resp.Values)
					resp.Release()
				} else {
					var raw httpTFResponse
					if err := postJSON(ts.URL+"/v1/parties/B/body/tf", c.body, &raw); err != nil {
						t.Error(err)
						return
					}
					got = raw.Values
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("client %d, doc %d: %v, want %v", client, c.doc, got, c.want)
					return
				}
			}
		}(client)
	}
	wg.Wait()
}

// postJSON is postRawJSON for goroutines other than the test's own: it
// reports instead of calling t.Fatal.
func postJSON(url, body string, out any) error {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestLeaseAbandonedAttemptsRelease: resilience.Call walks away from an
// attempt that outlives its deadline, and the attempt runs on — through
// AnswerRTK, recovery and the release of its own reply — beside the
// retry. With a deadline no attempt can meet, every attempt is
// abandoned; the answers taken while they finish, and after, must equal
// the undisturbed one.
func TestLeaseAbandonedAttemptsRelease(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	src, _ := fed.Party("A")
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	plan := src.Querier().Plan(5)
	want, wantCost, err := core.RTKWithPlan(plan, owner, 3)
	if err != nil || len(want) == 0 {
		t.Fatalf("undisturbed recovery: %v, %v", want, err)
	}
	var running sync.WaitGroup
	attempt := func() ([]core.DocCount, error) {
		defer running.Done()
		docs, cost, err := core.RTKWithPlan(plan, owner, 3)
		if err == nil && (!reflect.DeepEqual(docs, want) || cost != wantCost) {
			err = fmt.Errorf("an abandoned attempt recovered %v at %+v, want %v at %+v", docs, cost, want, wantCost)
			t.Error(err)
		}
		return docs, err
	}
	hurried := resilience.DefaultPolicy().WithSleep(func(time.Duration) {})
	hurried.MaxAttempts, hurried.CallTimeout = 6, time.Nanosecond
	for round := 0; round < 20; round++ {
		running.Add(hurried.MaxAttempts)
		_, attempts, err := resilience.Call(hurried, uint64(round), attempt)
		if err == nil { // an attempt beat a 1 ns timer to the select: the rest were never made
			running.Add(attempts - hurried.MaxAttempts)
		} else if !errors.Is(err, resilience.ErrDeadlineExceeded) {
			t.Fatal(err)
		}
		// The retry, with time to finish, beside whatever is still running.
		got, cost, err := core.RTKWithPlan(plan, owner, 3)
		if err != nil || !reflect.DeepEqual(got, want) || cost != wantCost {
			t.Fatalf("round %d: the retried answer is %v at %+v (%v), want %v at %+v", round, got, cost, err, want, wantCost)
		}
	}
	running.Wait()
	if got, _, err := core.RTKWithPlan(plan, owner, 3); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after every abandoned attempt finished: %v (%v), want %v", got, err, want)
	}
}

// TestLeaseAbandonedSearchState: an attempt abandoned at its deadline
// runs on after its search has returned, reading the search's plans and
// writing the lists it recovers, so that search's pooled state must
// serve no other search until the attempt ends. Rounds of searches whose
// attempts are all abandoned are followed at once by searches with time
// to finish, beside the abandoned attempts; each of those must rank as
// the undisturbed search did, and -race must see no memory shared
// between them.
func TestLeaseAbandonedSearchState(t *testing.T) {
	fed := shardTestFedParams(t, testParams())
	want := make([][]SearchHit, len(shardTestTerms))
	for i, terms := range shardTestTerms {
		res, err := fed.Search("A", terms, 5)
		if err != nil || len(res.Hits) == 0 {
			t.Fatalf("undisturbed search %v: %v (%v)", terms, res, err)
		}
		want[i] = res.Hits
	}
	patient := fed.ResiliencePolicy()
	hurried := patient.WithSleep(func(time.Duration) {})
	hurried.MaxAttempts, hurried.CallTimeout = 2, time.Millisecond
	check := func(round, i int, res *SearchResult, err error) {
		if err != nil || !reflect.DeepEqual(res.Hits, want[i]) {
			t.Fatalf("round %d, search %v: %v (%v), want %v", round, shardTestTerms[i], res, err, want[i])
		}
	}
	for round := 0; round < 8; round++ {
		fed.Server.SetPartyLink("B", 5*time.Millisecond)
		fed.SetResiliencePolicy(hurried)
		for i, terms := range shardTestTerms {
			res, err := fed.Search("A", terms, 5)
			if err == nil { // an attempt beat a 1 ms timer to the select
				check(round, i, res, err)
			} else if !errors.Is(err, resilience.ErrDeadlineExceeded) {
				t.Fatal(err)
			}
		}
		fed.Server.SetPartyLink("B", 0)
		fed.SetResiliencePolicy(patient)
		for i, terms := range shardTestTerms {
			res, err := fed.Search("A", terms, 5)
			check(round, i, res, err)
		}
	}
}

// searchGeometryFed builds the federation of the scorecard's
// search_cold workload at its geometry: a querier Q and four data
// parties of 1 200 documents each, z = 30, alpha*K = 250, cache off.
func searchGeometryFed(tb testing.TB) *Federation {
	tb.Helper()
	p := core.DefaultParams()
	p.K = 50
	names := []string{"Q", "P0", "P1", "P2", "P3"}
	fed, err := NewDeterministic(names, p, 42, 7)
	if err != nil {
		tb.Fatal(err)
	}
	for pi, party := range fed.Parties[1:] {
		rng := rand.New(rand.NewSource(int64(pi) + 1))
		docs := make([]core.DocCounts, 1200)
		for id := range docs {
			counts := make(map[uint64]int64)
			for j := 0; j < 80; j++ {
				counts[uint64(rng.Intn(3000))]++
			}
			docs[id] = core.DocCounts{DocID: id, Counts: counts}
		}
		if err := party.Owner(FieldBody).AddDocuments(docs); err != nil {
			tb.Fatal(err)
		}
	}
	return fed
}

// TestSearchAllocBudget holds the scorecard's search_cold allocation
// bill in tier-1: a 4-party x 4-term in-process search at the benchmark
// geometry (searchGeometryFed) allocates at most 24 kB in 80 objects in
// steady state. Sixteen reverse top-K answers of 90 kB each pass
// through it in four exchanges, and none of them may be made anew; the
// plans, the recovered lists and the merge live in pooled search state.
// Measured: 60 to 69 objects and 4.4 to 19.2 kB at GOMAXPROCS 1 to 32 —
// more processors spread the pools' entries over more caches, so a
// search meets more empty ones.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the budget holds without -race")
	}
	fed := searchGeometryFed(t)
	search := func(n int) {
		terms := []uint64{uint64(4 * n), uint64(4*n + 1), uint64(4*n + 2), uint64(4*n + 3)}
		if _, err := fed.Search("Q", terms, 10); err != nil {
			t.Fatal(err)
		}
	}
	const warm, runs = 5, 50
	for n := 0; n < warm; n++ {
		search(n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := warm; n < warm+runs; n++ {
		search(n)
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e3
	t.Logf("%.0f objects, %.1f kB per search", objects, kb)
	if objects > 80 || kb > 24 {
		t.Errorf("a 4 x 4 search allocates %.0f objects, %.1f kB; the budget is 80 and 24 kB", objects, kb)
	}
}

// TestUntracedRelayAllocation: Server.OwnerFor allocates one relay per
// resolution — one per CrossTF, ~110 per augment_train op — so a field
// that pushes routedOwner past 64 bytes reads as +3 % alloc_kb_per_op,
// and a party host binds every request's owner to the request's trace
// context, so binding to none must allocate nothing.
func TestUntracedRelayAllocation(t *testing.T) {
	if n := unsafe.Sizeof(routedOwner{}); n > 64 {
		t.Fatalf("routedOwner is %d bytes; the untraced relay's allocation budget is the 64-byte class", n)
	}
	owner, err := twoPartyFed(t, testParams()).Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	tc := owner.(traceCarrier) // through the interface, as resolveOwner calls it
	if n := testing.AllocsPerRun(100, func() { tc.WithTrace(telemetry.SpanContext{}) }); n != 0 && !raceEnabled {
		t.Fatalf("WithTrace of no trace allocates %v objects", n)
	}
}

// TestRelayCallAllocBudget holds the per-call allocation table of the
// relayed point queries in tier-1 — in process, unsharded, at the
// benchmark geometry with noise on and the wire codec's accounting: a
// CrossTF allocates nothing (the relay is the party's registered one,
// span names are interned, the query is obfuscated into pooled scratch
// and the leased reply is released after recovery), nor does resolving an
// owner and asking it for a document's metadata; a ReverseTopK allocates
// its plan, the reply header Release makes and the result it returns.
func TestRelayCallAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the budget holds without -race")
	}
	p := core.DefaultParams()
	p.K = 50
	fed, err := NewDeterministic([]string{"Q", "P"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	fed.Server.SetWireCodec(true)
	rng := rand.New(rand.NewSource(1))
	docs := make([]core.DocCounts, 300)
	for id := range docs {
		counts := make(map[uint64]int64)
		for j := 0; j < 80; j++ {
			counts[uint64(rng.Intn(3000))]++
		}
		docs[id] = core.DocCounts{DocID: id, Counts: counts}
	}
	if err := fed.Parties[1].Owner(FieldBody).AddDocuments(docs); err != nil {
		t.Fatal(err)
	}
	var n int
	calls := []struct {
		name   string
		budget float64
		call   func() error
	}{
		{"CrossTF", 0, func() error {
			n++
			_, err := fed.CrossTF("Q", "P", FieldBody, n%len(docs), uint64(n%3000))
			return err
		}},
		{"OwnerFor+DocMeta", 0, func() error {
			n++
			owner, err := fed.Server.OwnerFor("P", FieldBody)
			if err == nil {
				_, _, err = owner.DocMeta(n % len(docs))
			}
			return err
		}},
		{"ReverseTopK", 5, func() error {
			n++
			_, _, err := fed.ReverseTopK("Q", "P", FieldBody, uint64(n%3000), p.K, true)
			return err
		}},
	}
	for _, c := range calls {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := c.call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %v allocs/call", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s allocates %v objects a call; the budget is %v", c.name, allocs, c.budget)
		}
	}
}
