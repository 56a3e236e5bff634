package federation

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/ltr"
	"csfltr/internal/telemetry"
)

// rtkQueryVia runs one fixed RTK query through the given owner view and
// returns the server traffic it generated.
func rtkQueryVia(t *testing.T, fed *Federation, owner core.OwnerAPI) TrafficStats {
	t.Helper()
	a, _ := fed.Party("A")
	before := fed.Server.Traffic()
	if _, _, err := core.RTKReverseTopK(a.Querier(), owner, 5, 2); err != nil {
		t.Fatal(err)
	}
	after := fed.Server.Traffic()
	return TrafficStats{Messages: after.Messages - before.Messages, Bytes: after.Bytes - before.Bytes}
}

// TestTransportByteParity is the regression test for consolidated byte
// accounting: the same reverse top-K query must be charged identical
// message and byte counts whether the party is in-process, reached
// through this server's own gateway, or hosted in another process and
// relayed to over HTTP — every leg routes through the server's single
// accounting helper.
func TestTransportByteParity(t *testing.T) {
	fed := twoPartyFed(t, testParams())

	direct, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	inProc := rtkQueryVia(t, fed, direct)
	if inProc.Messages == 0 || inProc.Bytes == 0 {
		t.Fatalf("in-process query not accounted: %+v", inProc)
	}

	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	overHTTP := rtkQueryVia(t, fed, NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client()))
	if overHTTP != inProc {
		t.Fatalf("HTTP traffic %+v != in-process %+v", overHTTP, inProc)
	}

	// Remote leg: B on its own host, a second coordinator relaying to it.
	b, _ := fed.Party("B")
	coord := NewServer()
	if err := coord.RegisterHTTPRemote("B", partyHost(t, b), nil); err != nil {
		t.Fatal(err)
	}
	relayed, err := coord.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	remote := rtkQueryVia(t, &Federation{Server: coord, Parties: fed.Parties}, relayed)
	if remote != inProc {
		t.Fatalf("relayed traffic %+v != in-process %+v", remote, inProc)
	}
}

// TestTrafficIsRegistryView: the legacy TrafficStats API reads the same
// numbers the Prometheus counters expose, and ResetTraffic zeroes both.
func TestTrafficIsRegistryView(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fed.Party("A")
	if _, _, err := core.RTKReverseTopK(a.Querier(), owner, 5, 2); err != nil {
		t.Fatal(err)
	}
	tr := fed.Server.Traffic()
	if tr.Messages == 0 || tr.Bytes == 0 {
		t.Fatalf("no traffic recorded: %+v", tr)
	}
	snap := fed.Server.Metrics().Snapshot()
	var msgs, bytes int64
	// Every party has its query relay series from registration on; only
	// B's may have counted anything.
	for _, s := range snap.Metric(MetricRelayedMessages).Series {
		if s.Labels["op"] != opQuery || s.Labels["party"] != "B" && s.Value != 0 {
			t.Fatalf("unexpected relay series %v = %v", s.Labels, s.Value)
		}
		msgs += int64(s.Value)
	}
	for _, s := range snap.Metric(MetricRelayedBytes).Series {
		bytes += int64(s.Value)
	}
	if msgs != tr.Messages || bytes != tr.Bytes {
		t.Fatalf("registry (%d msgs, %d B) != TrafficStats %+v", msgs, bytes, tr)
	}
	fed.Server.ResetTraffic()
	if tr := fed.Server.Traffic(); tr != (TrafficStats{}) {
		t.Fatalf("ResetTraffic left %+v", tr)
	}
}

// TestAPILatencyRecorded: owner API calls through the server land in the
// per-API latency histogram.
func TestAPILatencyRecorded(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fed.Party("A")
	if _, _, err := core.RTKReverseTopK(a.Querier(), owner, 5, 2); err != nil {
		t.Fatal(err)
	}
	m := fed.Server.Metrics().Snapshot().Metric(MetricAPILatency)
	if m == nil {
		t.Fatal("API latency histogram missing")
	}
	var rtk int64
	for _, s := range m.Series {
		if s.Labels["api"] == apiRTK {
			rtk = s.Count
		}
	}
	if rtk == 0 {
		t.Fatal("rtk API call not timed")
	}
}

// TestSearchStagesRecorded: a federated search populates the rtk_query
// and merge stage histograms and the search counters.
func TestSearchStagesRecorded(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	if _, err := fed.Search("A", []uint64{5, 9}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	snap := fed.Server.Metrics().Snapshot()
	stages := map[string]int64{}
	if m := snap.Metric(MetricSearchStageDuration); m != nil {
		for _, s := range m.Series {
			stages[s.Labels["stage"]] = s.Count
		}
	}
	if stages[StageRTKQuery] == 0 {
		t.Fatalf("rtk_query stage not timed: %v", stages)
	}
	if stages[StageMerge] == 0 {
		t.Fatalf("merge stage not timed: %v", stages)
	}
	if stages[StageTFQuery] == 0 {
		t.Fatalf("tf_query stage not timed: %v", stages)
	}
	if m := snap.Metric(MetricSearchRequests); m == nil || m.Series[0].Value != 1 {
		t.Fatalf("search request counter wrong: %+v", m)
	}
	if m := snap.Metric(MetricSearchDuration); m == nil || m.Series[0].Count != 1 {
		t.Fatalf("search duration histogram wrong: %+v", m)
	}
}

// TestDPNoiseStageRecorded: with DP enabled, answering queries draws
// noise and the draws are timed into the dp_noise stage.
func TestDPNoiseStageRecorded(t *testing.T) {
	p := testParams()
	p.Epsilon = 1
	fed := twoPartyFed(t, p)
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fed.Party("A")
	if _, _, err := core.RTKReverseTopK(a.Querier(), owner, 5, 2); err != nil {
		t.Fatal(err)
	}
	snap := fed.Server.Metrics().Snapshot()
	var dpCount int64
	if m := snap.Metric(MetricSearchStageDuration); m != nil {
		for _, s := range m.Series {
			if s.Labels["stage"] == StageDPNoise {
				dpCount = s.Count
			}
		}
	}
	if dpCount == 0 {
		t.Fatal("dp_noise stage not timed under epsilon > 0")
	}
}

// TestTrainingStatsFromRegistry: TrainRoundRobin's hop/byte stats are a
// view over the op="train" relay counters and round durations land in
// the training histogram.
func TestTrainingStatsFromRegistry(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	data := map[string][]ltr.Instance{
		"A": {{Features: []float64{1, 0}, Label: 1, QueryKey: "q0"}},
		"B": {{Features: []float64{0, 1}, Label: 0, QueryKey: "q1"}},
	}
	cfg := ltr.DefaultSGDConfig()
	_, stats, err := fed.TrainRoundRobin(2, data, 3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 3 || stats.ModelHops != 12 {
		t.Fatalf("stats = %+v, want 3 rounds / 12 hops", stats)
	}
	// BytesRelayed carries the framed encoded model per hop; the legacy
	// fixed-width figure (12 hops x (2 weights + bias) x 8 bytes) is the
	// reference the framing overhead is measured against.
	legacyBytes := int64(12) * modelWireSize(2)
	// Compact integral values can dip below the fixed-width figure, so
	// the lower bound is loose.
	perHopOverhead := (stats.BytesRelayed - legacyBytes) / 12
	if perHopOverhead < -16 || perHopOverhead > 16 {
		t.Fatalf("BytesRelayed = %d (legacy reference %d): framing overhead %d bytes/hop out of range",
			stats.BytesRelayed, legacyBytes, perHopOverhead)
	}
	snap := fed.Server.Metrics().Snapshot()
	var trainBytes int64
	for _, s := range snap.Metric(MetricRelayedBytes).Series {
		if s.Labels["op"] == opTrain {
			trainBytes += int64(s.Value)
		}
	}
	if trainBytes != stats.BytesRelayed {
		t.Fatalf("registry train bytes = %d, want %d", trainBytes, stats.BytesRelayed)
	}
	if m := snap.Metric(MetricTrainingRoundDuration); m == nil || m.Series[0].Count != 3 {
		t.Fatalf("round duration histogram wrong: %+v", m)
	}
}

// TestHTTPMetricsRoute: the gateway serves Prometheus text including
// request counters, latency histograms and relayed-bytes counters after
// a federated query has flowed through it.
func TestHTTPMetricsRoute(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	a, _ := fed.Party("A")
	remote := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
	if _, _, err := core.RTKReverseTopK(a.Querier(), remote, 5, 2); err != nil {
		t.Fatal(err)
	}
	// An unknown party produces an error sample on its route.
	if _, _, err := NewHTTPOwner(ts.URL, "ZZZ", FieldBody, ts.Client()).DocMeta(0); err == nil {
		t.Fatal("unknown party should error")
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"csfltr_http_requests_total{",
		"csfltr_http_request_duration_seconds_bucket{",
		`csfltr_http_errors_total{route="/v1/parties/{name}/{field}/docs/{id}/meta"} 1`,
		`csfltr_server_relayed_bytes_total{op="query",party="B"}`,
		"csfltr_server_api_latency_seconds_bucket{",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/v1/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestHTTPMethodNotAllowed: wrong-method requests get a JSON 405 with an
// Allow header and the request ID echoed in the envelope.
func TestHTTPMethodNotAllowed(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	cases := []struct {
		method, path, wantAllow string
	}{
		{"POST", "/v1/parties", "GET"},
		{"DELETE", "/v1/parties/B/body/docs", "GET"},
		{"GET", "/v1/parties/B/body/tf", "POST"},
		{"PUT", "/v1/parties/B/body/rtk", "POST"},
		{"POST", "/v1/metrics", "GET"},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", "parity-check-42")
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Fatalf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.wantAllow)
		}
		if !strings.Contains(string(body), `"request_id":"parity-check-42"`) {
			t.Fatalf("%s %s: envelope missing request id: %s", tc.method, tc.path, body)
		}
	}
}

// TestHTTPRequestID: the gateway assigns an ID when absent, echoes a
// caller-provided one, and unknown routes return the JSON envelope.
func TestHTTPRequestID(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/parties")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("gateway did not assign a request id")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/parties", nil)
	req.Header.Set("X-Request-ID", "caller-7")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-7" {
		t.Fatalf("propagated id = %q, want caller-7", got)
	}

	resp3, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound || !strings.Contains(string(body), `"request_id"`) {
		t.Fatalf("unknown route: status %d body %s", resp3.StatusCode, body)
	}
}

// TestSetRegistry: a server embedded into an external registry records
// there, including re-wired party DP timers.
func TestSetRegistry(t *testing.T) {
	p := testParams()
	p.Epsilon = 1
	fed := twoPartyFed(t, p)
	reg := telemetry.NewRegistry()
	fed.Server.SetRegistry(reg)
	owner, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := fed.Party("A")
	if _, _, err := core.RTKReverseTopK(a.Querier(), owner, 5, 2); err != nil {
		t.Fatal(err)
	}
	if fed.Server.Metrics() != reg {
		t.Fatal("Metrics() did not return the injected registry")
	}
	snap := reg.Snapshot()
	if m := snap.Metric(MetricRelayedBytes); m == nil {
		t.Fatal("relay counters absent from injected registry")
	}
	var dpCount int64
	if m := snap.Metric(MetricSearchStageDuration); m != nil {
		for _, s := range m.Series {
			if s.Labels["stage"] == StageDPNoise {
				dpCount = s.Count
			}
		}
	}
	if dpCount == 0 {
		t.Fatal("party DP timers not re-wired to injected registry")
	}
	if tr := fed.Server.Traffic(); tr.Messages == 0 {
		t.Fatalf("Traffic view broken after SetRegistry: %+v", tr)
	}
}

// TestTrafficSharedRegistry: two servers recording into one registry
// (as expbench's pipelines do) each read their own roster's traffic and
// transport bytes, and resetting one leaves the other's counters alone.
func TestTrafficSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	one := twoPartyFed(t, testParams())
	other, err := NewDeterministic([]string{"C", "D"}, testParams(), 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	one.Server.SetRegistry(reg)
	other.Server.SetRegistry(reg)
	if _, err := one.CrossTF("A", "B", FieldBody, 0, 5); err != nil {
		t.Fatal(err)
	}
	if tr := one.Server.Traffic(); tr.Messages != 2 {
		t.Fatalf("the relaying server counts %+v, want the query and its reply", tr)
	}
	if tr, n := other.Server.Traffic(), other.Server.TransportBytes(CodecRaw, ""); tr != (TrafficStats{}) || n != 0 {
		t.Fatalf("a server that relayed nothing counts %+v and %d transport bytes", tr, n)
	}
	other.Server.ResetTraffic()
	if tr := one.Server.Traffic(); tr.Messages != 2 {
		t.Fatalf("another server's reset left %+v", tr)
	}
}
