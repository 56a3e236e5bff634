package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"csfltr/internal/chaos"
	"csfltr/internal/core"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// TestTracedDegradedSearchFlightRecorder is the PR's acceptance test:
// a chaos-seeded degraded search under tracing yields ONE coherent span
// tree — fan-out, one RTK exchange per party with retry attempts and
// injected faults, merge — retrievable via GET /v1/trace/{id} together
// with its audit record, and exportable as valid Chrome trace JSON.
func TestTracedDegradedSearchFlightRecorder(t *testing.T) {
	fed := chaosFedUnderTest(t, chaosSearchParams(), 130)
	fed.Server.EnableTracing(TraceConfig{EventCapacity: 256})
	terms := []uint64{5, 42, 133}

	res, traceID, err := fed.SearchTraced("Q", terms, 5)
	if err != nil {
		t.Fatalf("degraded search failed outright: %v", err)
	}
	if !res.Partial {
		t.Fatal("result with a hard-down party is not Partial")
	}
	if traceID == "" {
		t.Fatal("traced search returned no trace ID")
	}

	spans, ok := fed.Server.TraceTree(traceID)
	if !ok {
		t.Fatalf("trace %s not retained", traceID)
	}
	count := map[string]int{}
	faults := 0
	attemptsOnRetriedTask := false
	for _, sp := range spans {
		count[sp.Name]++
		if sp.TraceID != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
		if sp.Attr("fault") != "" {
			faults++
		}
		if sp.Name == "search.stage."+StageRTKQuery && sp.Attr("attempts") == "2" {
			attemptsOnRetriedTask = true
		}
		if sp.Name == "search.stage."+StageRTKQuery {
			hashes := strings.Split(sp.Attr("terms"), ",")
			if sp.Attr("party") == "" || len(hashes) != len(terms) {
				t.Fatalf("rtk_query span missing party attr or a hash per term: %+v", sp)
			}
			for i, term := range terms {
				if hashes[i] != fed.TermHash(term) || hashes[i] == fmt.Sprint(term) {
					t.Fatalf("span term %d is not the term's keyed hash: %+v", i, sp)
				}
			}
		}
	}
	if count["search"] != 1 {
		t.Fatalf("want exactly one root search span, got %d", count["search"])
	}
	if count["search.stage."+StageFanout] != 1 || count["search.stage."+StageMerge] != 1 {
		t.Fatalf("missing pipeline stage spans: %v", count)
	}
	// One exchange per data party carries its 3 terms.
	if count["search.stage."+StageRTKQuery] != 3 {
		t.Fatalf("rtk_query spans = %d, want 3 (counts: %v)", count["search.stage."+StageRTKQuery], count)
	}
	// P0 is hard-down, so its exchange is attempted twice: attempts must
	// exceed exchanges.
	if count["search.attempt"] <= count["search.stage."+StageRTKQuery] {
		t.Fatalf("attempt spans (%d) do not exceed exchanges (%d) despite chaos retries",
			count["search.attempt"], count["search.stage."+StageRTKQuery])
	}
	if faults == 0 {
		t.Fatal("no span recorded an injected fault kind")
	}
	if !attemptsOnRetriedTask {
		t.Fatal("no rtk_query span recorded attempts=2")
	}
	// Every non-root span links back inside the same tree.
	ids := map[string]bool{}
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			t.Fatalf("span %s parent %s not in tree", sp.Name, sp.ParentID)
		}
	}

	// The flight recorder's audit record reconciles with the report.
	audit, ok := fed.Server.AuditFor(traceID)
	if !ok {
		t.Fatalf("no audit record for trace %s", traceID)
	}
	if audit.Outcome != AuditPartial || !audit.Partial {
		t.Fatalf("audit outcome %q partial=%v, want partial", audit.Outcome, audit.Partial)
	}
	if audit.Terms != len(terms) || audit.Op != "search" || audit.Querier != "Q" {
		t.Fatalf("audit header %+v", audit)
	}
	if len(audit.Parties) != 3 {
		t.Fatalf("audit parties = %d, want 3", len(audit.Parties))
	}
	for _, p := range audit.Parties {
		if p.Transport != transportInproc {
			t.Fatalf("party %s transport %q, want inproc", p.Party, p.Transport)
		}
		if p.Epsilon != float64(p.Queries)*fed.Params.Epsilon {
			t.Fatalf("party %s epsilon %v != queries %d x %v", p.Party, p.Epsilon, p.Queries, fed.Params.Epsilon)
		}
	}
	if len(audit.Stages) == 0 {
		t.Fatal("audit record has no stage timings")
	}

	// GET /v1/trace/{id} serves the same tree + audit record.
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s -> %d", traceID, resp.StatusCode)
	}
	var tr struct {
		TraceID string                 `json:"trace_id"`
		Spans   []telemetry.SpanRecord `json:"spans"`
		Audit   *AuditRecord           `json:"audit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != traceID || len(tr.Spans) != len(spans) || tr.Audit == nil {
		t.Fatalf("trace route: id=%s spans=%d audit=%v", tr.TraceID, len(tr.Spans), tr.Audit)
	}
	if resp2, err := http.Get(ts.URL + "/v1/trace/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace -> %d, want 404", resp2.StatusCode)
		}
	}

	// GET /v1/audit serves the ledger.
	aresp, err := http.Get(ts.URL + "/v1/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	var al struct {
		Records []AuditRecord `json:"records"`
	}
	if err := json.NewDecoder(aresp.Body).Decode(&al); err != nil {
		t.Fatal(err)
	}
	if len(al.Records) == 0 || al.Records[len(al.Records)-1].TraceID != traceID {
		t.Fatalf("audit route records = %+v", al.Records)
	}

	// Chrome trace-event export is valid JSON with one event per span.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != len(spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(ct.TraceEvents), len(spans))
	}
}

// TestAuditEpsilonReconciliation: summing the audit ledger's per-party
// epsilon must reproduce dp.Accountant's spend exactly, and the ledger's
// cached counts must reproduce the accountant's zero-epsilon replays —
// across fresh fan-outs AND whole-query cache replays.
func TestAuditEpsilonReconciliation(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	p.CacheBytes = 1 << 20
	p.Parallelism = 1
	fed, err := NewDeterministic([]string{"A", "B", "C"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fed.Party("B")
	c, _ := fed.Party("C")
	mustIngest(t, b, 0, []textkit.TermID{10, 10, 11})
	mustIngest(t, c, 0, []textkit.TermID{10})
	fed.Server.EnableTracing(TraceConfig{})

	terms := []uint64{10, 11}
	if _, _, err := fed.SearchTraced("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	// Identical repeat: whole-query replay, zero spend.
	if _, _, err := fed.SearchTraced("A", terms, 3); err != nil {
		t.Fatal(err)
	}
	// A subset query: its only term replays from the TASK tier (term 11's
	// per-party answers were cached by the first fan-out), so it spends
	// nothing either — the audit rows must say Cached=1, Queries=0.
	if _, _, err := fed.SearchTraced("A", []uint64{11}, 3); err != nil {
		t.Fatal(err)
	}

	src, _ := fed.Party("A")
	records := fed.Server.AuditRecords()
	if len(records) != 3 {
		t.Fatalf("audit records = %d, want 3", len(records))
	}
	if records[1].Outcome != AuditReplay {
		t.Fatalf("second record outcome %q, want replay", records[1].Outcome)
	}
	if records[1].EpsilonSpent != 0 {
		t.Fatalf("replay record charged epsilon %v", records[1].EpsilonSpent)
	}
	for _, pr := range records[2].Parties {
		if pr.Queries != 0 || pr.Cached != 1 {
			t.Fatalf("task-tier replay row %+v, want 0 queries / 1 cached", pr)
		}
	}
	eps := map[string]float64{}
	cachedCount := map[string]int{}
	for _, rec := range records {
		for _, pr := range rec.Parties {
			eps[pr.Party] += pr.Epsilon
			cachedCount[pr.Party] += pr.Cached
		}
	}
	for _, row := range src.Accountant().Ledger() {
		if got := eps[row.Peer]; got != row.Spent {
			t.Fatalf("peer %s: audit epsilon %v != accountant spend %v", row.Peer, got, row.Spent)
		}
		if got := int64(cachedCount[row.Peer]); got != row.Replays {
			t.Fatalf("peer %s: audit cached %d != accountant replays %d", row.Peer, got, row.Replays)
		}
		// Only the first fan-out spent: 2 terms x 0.5.
		if row.Spent != 1.0 {
			t.Fatalf("peer %s spent %v, want 1.0", row.Peer, row.Spent)
		}
	}
}

// TestAuditBudgetRefusal: a mid-roster budget refusal aborts the search
// but its audit record keeps the partial spends — the rows that already
// charged the accountant — so reconciliation still holds.
func TestAuditBudgetRefusal(t *testing.T) {
	p := testParams()
	p.Epsilon = 0.5
	srv := NewServer()
	fed := &Federation{Server: srv, Params: p, HashSeed: 42}
	for i, name := range []string{"A", "B", "C"} {
		// Budget 1.0 refuses each party's third 0.5 spend.
		pt, err := NewParty(name, PartyConfig{Params: p, Seed: 42, RNGSeed: 7 + int64(i)*1000, Budget: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Register(pt); err != nil {
			t.Fatal(err)
		}
		fed.Parties = append(fed.Parties, pt)
	}
	b, _ := fed.Party("B")
	mustIngest(t, b, 0, []textkit.TermID{10, 10, 11})
	srv.EnableTracing(TraceConfig{})

	// Three terms x 0.5 = 1.5 > budget 1.0: refusal on B's third term,
	// after two spends on B and none on C.
	_, traceID, err := fed.SearchTraced("A", []uint64{10, 11, 12}, 3)
	if err == nil {
		t.Fatal("expected budget refusal")
	}
	audit, ok := srv.AuditFor(traceID)
	if !ok {
		t.Fatal("no audit record for refused search")
	}
	if audit.Outcome != AuditBudgetRefused {
		t.Fatalf("audit outcome %q, want budget_refused", audit.Outcome)
	}
	if len(audit.Parties) != 1 || audit.Parties[0].Party != "B" {
		t.Fatalf("audit parties %+v, want the refusing party B", audit.Parties)
	}
	if audit.Parties[0].Queries != 2 || audit.Parties[0].Epsilon != 1.0 {
		t.Fatalf("refused row %+v, want 2 queries / epsilon 1.0", audit.Parties[0])
	}
	src, _ := fed.Party("A")
	if got := src.Accountant().Spent("B"); got != audit.Parties[0].Epsilon {
		t.Fatalf("audit epsilon %v != accountant spend %v", audit.Parties[0].Epsilon, got)
	}
	if got := src.Accountant().Spent("C"); got != 0 {
		t.Fatalf("accountant charged C %v after abort", got)
	}
}

// parityParams: sequential, retry-friendly, no quorum loss.
func parityParams() core.Params {
	p := testParams()
	p.MinParties = 1
	p.Parallelism = 1
	return p
}

// parityParty replicates NewDeterministic's party construction for
// manually assembled topologies.
func parityParty(t *testing.T, name string, params core.Params, i int64) *Party {
	t.Helper()
	pt, err := NewParty(name, PartyConfig{Params: params, Seed: 42, RNGSeed: 7 + i*1000})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// parityIngest loads the same corpus into P1/P2 regardless of topology.
func parityIngest(t *testing.T, parties ...*Party) {
	t.Helper()
	for pi, p := range parties {
		rng := rand.New(rand.NewSource(int64(pi) + 1))
		for id := 0; id < 20; id++ {
			body := make([]textkit.TermID, 15)
			for j := range body {
				body[j] = textkit.TermID(rng.Intn(100))
			}
			if err := p.IngestDocument(textkit.NewDocument(id, -1, nil, body)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// parityChaos installs the same content-keyed fault profile on a
// coordinator: P1 fails 40% of calls, so retries (and retry spans)
// appear deterministically by call content across transports.
func parityChaos(s *Server) {
	in := chaos.New(99)
	in.SetProfile("P1", chaos.Profile{ErrorRate: 0.4})
	s.SetChaos(in)
}

// spanShape canonicalizes a trace tree into a transport-independent
// string: span names plus party/term/attempts/fault attrs, children
// sorted, IDs and durations dropped.
func spanShape(spans []telemetry.SpanRecord) string {
	children := map[string][]telemetry.SpanRecord{}
	var roots []telemetry.SpanRecord
	ids := map[string]bool{}
	for _, sp := range spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range spans {
		if sp.ParentID == "" || !ids[sp.ParentID] {
			roots = append(roots, sp)
			continue
		}
		children[sp.ParentID] = append(children[sp.ParentID], sp)
	}
	var render func(sp telemetry.SpanRecord) string
	render = func(sp telemetry.SpanRecord) string {
		var b strings.Builder
		b.WriteString(sp.Name)
		for _, key := range []string{"party", "term", "attempts", "fault"} {
			if v := sp.Attr(key); v != "" {
				fmt.Fprintf(&b, " %s=%s", key, v)
			}
		}
		kids := children[sp.SpanID]
		rendered := make([]string, len(kids))
		for i, k := range kids {
			rendered[i] = render(k)
		}
		sort.Strings(rendered)
		if len(rendered) > 0 {
			b.WriteString("{" + strings.Join(rendered, ";") + "}")
		}
		return b.String()
	}
	rendered := make([]string, len(roots))
	for i, r := range roots {
		rendered[i] = render(r)
	}
	sort.Strings(rendered)
	return strings.Join(rendered, "\n")
}

// TestTraceParityAcrossTransports: the same chaos-seeded query produces
// the same coordinator-side span tree shape — including retry attempts —
// whether the data parties are in-process or behind HTTP gateways, and
// the remote hosts' registries carry spans under the SAME propagated
// trace ID.
func TestTraceParityAcrossTransports(t *testing.T) {
	params := parityParams()
	terms := []uint64{3, 17}

	// In-process topology.
	inproc, err := NewDeterministic([]string{"Q", "P1", "P2"}, params, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := inproc.Party("P1")
	p2, _ := inproc.Party("P2")
	parityIngest(t, p1, p2)
	parityChaos(inproc.Server)
	inproc.SetResiliencePolicy(fastPolicy())
	inproc.Server.EnableTracing(TraceConfig{})

	// HTTP topology: P1 and P2 behind their own gateways.
	htQ := parityParty(t, "Q", params, 0)
	htP1 := parityParty(t, "P1", params, 1)
	htP2 := parityParty(t, "P2", params, 2)
	parityIngest(t, htP1, htP2)
	var httpHostRegs []*telemetry.Registry
	coordHTTP := NewServer()
	if err := coordHTTP.Register(htQ); err != nil {
		t.Fatal(err)
	}
	for _, pt := range []*Party{htP1, htP2} {
		hs := NewServer()
		hs.EnableTracing(TraceConfig{})
		httpHostRegs = append(httpHostRegs, hs.Metrics())
		if err := hs.Register(pt); err != nil {
			t.Fatal(err)
		}
		gw := httptest.NewServer(HTTPHandler(hs))
		defer gw.Close()
		if err := coordHTTP.RegisterHTTPRemote(pt.Name, gw.URL, nil); err != nil {
			t.Fatal(err)
		}
	}
	parityChaos(coordHTTP)
	coordHTTP.EnableTracing(TraceConfig{})
	fedHTTP := &Federation{Server: coordHTTP, Parties: []*Party{htQ, htP1, htP2}, Params: params, HashSeed: 42}
	fedHTTP.SetResiliencePolicy(fastPolicy())

	shapes := map[string]string{}
	traceIDs := map[string]string{}
	for name, fed := range map[string]*Federation{"inproc": inproc, "http": fedHTTP} {
		res, traceID, err := fed.SearchTraced("Q", terms, 5)
		if err != nil {
			t.Fatalf("%s search: %v", name, err)
		}
		if len(res.Hits) == 0 {
			t.Fatalf("%s search returned no hits", name)
		}
		spans, ok := fed.Server.TraceTree(traceID)
		if !ok {
			t.Fatalf("%s trace missing", name)
		}
		shapes[name] = spanShape(spans)
		traceIDs[name] = traceID
		audit, ok := fed.Server.AuditFor(traceID)
		if !ok {
			t.Fatalf("%s audit missing", name)
		}
		for _, pr := range audit.Parties {
			want := map[string]string{"inproc": transportInproc, "http": transportHTTP}[name]
			if pr.Transport != want {
				t.Fatalf("%s audit transport for %s = %q, want %q", name, pr.Party, pr.Transport, want)
			}
		}
	}
	if shapes["inproc"] != shapes["http"] {
		t.Fatalf("inproc vs http tree shape:\n%s\n---\n%s", shapes["inproc"], shapes["http"])
	}
	if !strings.Contains(shapes["inproc"], "attempts=2") {
		t.Fatalf("parity shape has no retries — chaos profile too tame:\n%s", shapes["inproc"])
	}

	// The party hosts recorded their server-side spans under the
	// coordinator's propagated trace ID.
	found := false
	for _, reg := range httpHostRegs {
		if _, ok := reg.Trace(traceIDs["http"]); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("no remote host registry carries trace %s", traceIDs["http"])
	}
}

// TestEventsRouteFieldsStable is the satellite regression: /v1/events
// serves the structured event log; old fields are bitwise-stable and
// traced spans additionally carry trace_id/request_id.
func TestEventsRouteFieldsStable(t *testing.T) {
	fed := searchFed(t)
	fed.Server.EnableTracing(TraceConfig{EventCapacity: 128})
	if _, traceID, err := fed.SearchTraced("A", []uint64{10, 11}, 3); err != nil {
		t.Fatal(err)
	} else if traceID == "" {
		t.Fatal("no trace id")
	}

	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Events) == 0 {
		t.Fatal("no events recorded")
	}
	tracedSeen := false
	for _, ev := range out.Events {
		// The stable pre-trace contract.
		for _, key := range []string{"name", "start_unix_nano", "duration_nanos"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing stable field %q: %v", key, ev)
			}
		}
		if id, ok := ev["trace_id"].(string); ok && id != "" {
			tracedSeen = true
		}
	}
	if !tracedSeen {
		t.Fatal("no event carries a trace_id despite tracing on")
	}
}

// relayLedger runs one fixed workload — a search, a CrossTF, a DocMeta
// and a DocIDs against P1, once under each accounting codec — on a fresh
// Q/P1/P2 federation and returns everything the relay recorded, as text.
func relayLedger(t *testing.T, remote, traced, faulty bool) string {
	t.Helper()
	params := parityParams()
	q, p1, p2 := parityParty(t, "Q", params, 0), parityParty(t, "P1", params, 1), parityParty(t, "P2", params, 2)
	parityIngest(t, p1, p2)
	srv := NewServer()
	if err := srv.Register(q); err != nil {
		t.Fatal(err)
	}
	for _, pt := range []*Party{p1, p2} {
		host := srv
		if remote {
			host = NewServer()
			gw := httptest.NewServer(HTTPHandler(host))
			t.Cleanup(gw.Close)
			if err := srv.RegisterHTTPRemote(pt.Name, gw.URL, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := host.Register(pt); err != nil {
			t.Fatal(err)
		}
	}
	if faulty {
		parityChaos(srv)
	}
	fed := &Federation{Server: srv, Parties: []*Party{q, p1, p2}, Params: params, HashSeed: 42}
	fed.SetResiliencePolicy(fastPolicy())
	owner, err := srv.OwnerFor("P1", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	if traced {
		srv.EnableTracing(TraceConfig{})
		root := srv.Metrics().StartRootSpan("test", nil)
		defer root.End()
		owner = owner.(traceCarrier).WithTrace(root.Context())
	}

	var out strings.Builder
	for _, wireCodec := range []bool{false, true} {
		srv.SetWireCodec(wireCodec)
		res, traceID, err := fed.SearchTraced("Q", []uint64{3, 17}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if spans, _ := srv.TraceTree(traceID); traced != strings.Contains(spanShape(spans), "server.api.rtk") {
			t.Fatalf("traced=%v but the relay's rtk span says otherwise", traced)
		}
		tf, tfErr := fed.CrossTF("Q", "P1", FieldBody, 0, 3)
		length, unique, metaErr := owner.DocMeta(0)
		fmt.Fprintf(&out, "hits %+v parties %+v tf %v %v meta %d %d %v ids %d\n",
			res.Hits, res.Parties, tf, tfErr, length, unique, metaErr, len(owner.DocIDs()))
	}
	fmt.Fprintf(&out, "traffic %+v exchanges %d faults %d\n", srv.Traffic(), exchangesSent(fed),
		srv.metrics().faultFor("P1", chaos.KindError).Value())
	for _, codec := range []string{CodecRaw, CodecWire} {
		for _, api := range []string{apiDocIDs, apiDocMeta, apiTF, apiRTK, apiSearch} {
			fmt.Fprintf(&out, "%s/%s %d\n", codec, api, srv.TransportBytes(codec, api))
		}
	}
	return out.String()
}

// TestRelayAccountingIndependentOfTracing: what the relay records — bytes,
// messages, exchanges, injected faults — and what a search answers are
// the same whether the party is in-process or behind HTTP and whether or
// not the call is traced, with and without a seeded fault profile. One
// relay implementation makes that true by construction; this keeps it so.
func TestRelayAccountingIndependentOfTracing(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		want := relayLedger(t, false, false, faulty)
		if faulty == strings.Contains(want, "faults 0\n") {
			t.Fatalf("chaos=%v but the fault counter disagrees:\n%s", faulty, want)
		}
		for _, cell := range []struct{ remote, traced bool }{{false, true}, {true, false}, {true, true}} {
			if got := relayLedger(t, cell.remote, cell.traced, faulty); got != want {
				t.Errorf("chaos=%v remote=%v traced=%v: ledger differs from the in-process untraced cell:\n%s---\n%s",
					faulty, cell.remote, cell.traced, got, want)
			}
		}
	}
}

// TestEnableTracingKeepsLogs: enabling the flight recorder again — on the
// same server, or on a second server over the same registry — keeps the
// slow-query and event entries already retained.
func TestEnableTracingKeepsLogs(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServerWithRegistry(reg)
	srv.EnableTracing(TraceConfig{EventCapacity: 16})
	// One traced span over a histogram whose p99 bound it reaches: one
	// event and one slow entry.
	h := reg.Histogram("csfltr_test_seconds", "", []float64{0})
	for i := 0; i < 100; i++ {
		h.Observe(0)
	}
	reg.StartRootSpan("op", h).End()
	check := func(when string) {
		t.Helper()
		if events, slow := len(reg.Events()), len(reg.SlowQueries()); events != 1 || slow != 1 {
			t.Fatalf("%s: %d events and %d slow entries, want 1 and 1", when, events, slow)
		}
	}
	check("first call")
	srv.EnableTracing(TraceConfig{EventCapacity: 16})
	check("second call")
	NewServerWithRegistry(reg).EnableTracing(TraceConfig{EventCapacity: 32})
	check("second server over the registry")
}

// TestAuditLogRing: the audit ring keeps its newest records, oldest
// first, and finds by trace ID only what it kept.
func TestAuditLogRing(t *testing.T) {
	l := newAuditLog(3)
	for i := 0; i < 5; i++ {
		l.append(AuditRecord{TraceID: fmt.Sprintf("t%d", i), Terms: i})
	}
	var kept []string
	for _, rec := range l.records() {
		kept = append(kept, rec.TraceID)
	}
	if got := strings.Join(kept, ","); got != "t2,t3,t4" {
		t.Fatalf("records = %s, want t2,t3,t4", got)
	}
	for i := 0; i < 5; i++ {
		rec, ok := l.byTrace(fmt.Sprintf("t%d", i))
		if ok != (i >= 2) || (ok && rec.Terms != i) {
			t.Fatalf("byTrace(t%d) = %+v, %v", i, rec, ok)
		}
	}
	if _, ok := l.byTrace(""); ok {
		t.Fatal("byTrace of the empty ID found a record")
	}
}
