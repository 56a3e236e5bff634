package federation

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
)

// httpFed builds a federation and an httptest server fronting it.
func httpFed(t *testing.T) (*Federation, *httptest.Server) {
	t.Helper()
	fed := twoPartyFed(t, testParams())
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	t.Cleanup(ts.Close)
	return fed, ts
}

func TestHTTPParties(t *testing.T) {
	_, ts := httpFed(t)
	resp, err := http.Get(ts.URL + "/v1/parties")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Parties []string `json:"parties"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Parties) != 2 || out.Parties[0] != "A" {
		t.Fatalf("parties = %v", out.Parties)
	}
}

func TestHTTPDocsAndMeta(t *testing.T) {
	_, ts := httpFed(t)
	var docs struct {
		IDs []int `json:"ids"`
	}
	resp, err := http.Get(ts.URL + "/v1/parties/B/body/docs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	if len(docs.IDs) != 3 {
		t.Fatalf("docs = %v", docs.IDs)
	}
	var meta struct{ Length, Unique int }
	resp2, err := http.Get(ts.URL + "/v1/parties/B/body/docs/0/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Length != 5 || meta.Unique != 2 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := httpFed(t)
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/v1/parties/ZZZ/body/docs", "", http.StatusNotFound},
		{"GET", "/v1/parties/B/wings/docs", "", http.StatusBadRequest},
		{"GET", "/v1/parties/B/body/docs/xx/meta", "", http.StatusBadRequest},
		{"GET", "/v1/parties/B/body/docs/999/meta", "", http.StatusNotFound},
		{"POST", "/v1/parties/B/body/tf", "{not json", http.StatusBadRequest},
		{"POST", "/v1/parties/B/body/tf", `{"doc_id":0,"cols":[1]}`, http.StatusBadRequest},
		{"POST", "/v1/parties/B/body/rtk", `{"cols":[1,2]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var resp *http.Response
		var err error
		if tc.method == "GET" {
			resp, err = http.Get(ts.URL + tc.path)
		} else {
			resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}

// TestHTTPOwnerFullProtocol drives the complete reverse top-K and TF
// protocols through the HTTP transport and checks agreement with the
// direct path.
func TestHTTPOwnerFullProtocol(t *testing.T) {
	fed, ts := httpFed(t)
	a, _ := fed.Party("A")

	remote := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
	ids := remote.DocIDs()
	if len(ids) != 3 {
		t.Fatalf("DocIDs = %v", ids)
	}
	got, cost, err := core.RTKReverseTopK(a.Querier(), remote, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].DocID != 0 {
		t.Fatalf("HTTP RTK = %v", got)
	}
	if cost.Messages != 1 {
		t.Fatalf("cost = %+v", cost)
	}
	// TF protocol.
	query, priv := a.Querier().BuildQuery(5)
	resp, err := remote.AnswerTF(0, query)
	if err != nil {
		t.Fatal(err)
	}
	est, err := a.Querier().Recover(priv, resp)
	if err != nil {
		t.Fatal(err)
	}
	if est != 4 {
		t.Fatalf("HTTP TF = %v, want 4", est)
	}
	// NAIVE path over HTTP.
	naive, _, err := core.NaiveReverseTopK(a.Querier(), remote, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(naive) == 0 || naive[0].DocID != 0 {
		t.Fatalf("HTTP NAIVE = %v", naive)
	}
	// Unknown doc meta errors.
	if _, _, err := remote.DocMeta(999); err == nil {
		t.Fatal("unknown doc should error over HTTP")
	}
	// Unknown party: empty roster, query errors.
	ghost := NewHTTPOwner(ts.URL, "ZZZ", FieldBody, ts.Client())
	if ids := ghost.DocIDs(); ids != nil {
		t.Fatalf("ghost roster = %v", ids)
	}
	if _, err := ghost.AnswerRTK(query); err == nil {
		t.Fatal("ghost query should error")
	}
}

// TestHTTPTrafficAccounted: requests through the gateway are charged to
// the same server traffic counters.
func TestHTTPTrafficAccounted(t *testing.T) {
	fed, ts := httpFed(t)
	fed.Server.ResetTraffic()
	a, _ := fed.Party("A")
	remote := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
	if _, _, err := core.RTKReverseTopK(a.Querier(), remote, 5, 2); err != nil {
		t.Fatal(err)
	}
	if tr := fed.Server.Traffic(); tr.Messages < 2 || tr.Bytes == 0 {
		t.Fatalf("gateway traffic not accounted: %+v", tr)
	}
}

// TestHTTPClientReusesConnections: net/http only keeps a connection
// whose response body was read to EOF, and a JSON decoder stops at the
// end of the value — short of the trailing newline and, on a chunked
// reply, the terminating chunk. Every client path therefore drains
// before closing, and a run of sequential calls of every kind, errors
// included, stays on one connection.
func TestHTTPClientReusesConnections(t *testing.T) {
	fed := geometryFed(t)
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(HTTPHandler(fed.Server))
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	owner := NewHTTPOwner(ts.URL, "B", FieldBody, client)
	ghost := NewHTTPOwner(ts.URL, "ZZZ", FieldBody, client)
	a, _ := fed.Party("A")

	for i := 0; i < 50; i++ {
		if _, err := owner.AnswerRTK(a.Querier().Plan(uint64(i)).Query()); err != nil {
			t.Fatal(err)
		}
		if ids := owner.DocIDs(); len(ids) != 400 { // > 2 kB of JSON: a chunked reply
			t.Fatalf("DocIDs returned %d ids", len(ids))
		}
		if _, _, err := owner.DocMeta(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, _, err := owner.DocMeta(100000 + i); err == nil {
			t.Fatal("unknown document should error")
		}
		if _, err := ghost.AnswerRTK(a.Querier().Plan(1).Query()); err == nil {
			t.Fatal("unknown party should error")
		}
	}
	if n := conns.Load(); n > 2 {
		t.Fatalf("160 sequential calls opened %d connections, want at most 2", n)
	}
}

// countingListener counts every byte its connections read or write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Write counts before it writes, so a byte the peer has seen is already
// in the total when the peer acts on it.
func (c countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestHTTPSocketBytesWithinAccounted: what the coordinator accounts for
// an HTTP remote is the stored frame size. A reverse top-K reply's
// frame is stored, so for RTK the bytes that cross the party host's
// socket are the accounted bytes plus the HTTP headers, on both sides;
// the small TF frames stay within accounted plus headers; and a reverse
// top-K reply costs a fraction of the public JSON form.
func TestHTTPSocketBytesWithinAccounted(t *testing.T) {
	fed := geometryFed(t) // Epsilon = 0.5: noisy values, the worst case for the codec
	b, _ := fed.Party("B")
	host := NewServer()
	if err := host.Register(b); err != nil {
		t.Fatal(err)
	}
	var socket atomic.Int64
	ts := httptest.NewUnstartedServer(HTTPHandler(host))
	ts.Listener = countingListener{Listener: ts.Listener, n: &socket}
	ts.Start()
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	coord := NewServer()
	coord.SetWireCodec(true)
	if err := coord.RegisterHTTPRemote("B", ts.URL, &http.Client{Transport: transport}); err != nil {
		t.Fatal(err)
	}
	remote, err := coord.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}

	const calls, headerBytes = 20, 700
	querier := fed.Parties[0].Querier()
	queries := make([]*core.TFQuery, calls)
	for i := range queries {
		queries[i] = querier.Plan(uint64(i)).Query()
		if _, err := remote.AnswerRTK(queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	// An RTK reply's frame is stored, so what is accounted is what
	// crosses the socket, not an upper bound on it: the two agree to
	// within 5 % plus the HTTP headers, on both sides.
	rtkSocket := socket.Load()
	acc := coord.TransportBytes(CodecWire, apiRTK)
	if slack := acc/20 + calls*headerBytes; rtkSocket > acc+slack || rtkSocket < acc-slack {
		t.Fatalf("rtk: %d bytes on the socket, %d accounted: want within 5 %% (+%d per call of headers)", rtkSocket, acc, headerBytes)
	}
	for i := 0; i < calls; i++ {
		if _, err := remote.AnswerTF(i, queries[i]); err != nil {
			t.Fatal(err)
		}
	}
	tfSocket := socket.Load() - rtkSocket
	if acc := coord.TransportBytes(CodecWire, apiTF); tfSocket > acc+calls*headerBytes {
		t.Fatalf("tf: %d bytes on the socket, %d accounted (+%d per call of headers)", tfSocket, acc, headerBytes)
	}

	jsonBytes := 0
	for _, q := range queries {
		body, _ := json.Marshal(httpRTKRequest{Cols: q.Cols})
		var out httpRTKResponse
		jsonBytes += postRawJSON(t, ts.URL+"/v1/parties/B/body/rtk", string(body), &out)
	}
	if int(rtkSocket)*5 > jsonBytes {
		t.Fatalf("rtk: %d bytes on the socket in wire form, %d bytes of JSON replies: want at least 5x fewer", rtkSocket, jsonBytes)
	}
	t.Logf("rtk socket %d B (accounted %d), tf socket %d B (accounted %d), json rtk replies %d B over %d calls",
		rtkSocket, coord.TransportBytes(CodecWire, apiRTK), tfSocket, coord.TransportBytes(CodecWire, apiTF), jsonBytes, calls)
}

// TestGatewayPermanentErrorsAreNot5xx: no error a retry cannot cure is
// answered as a server fault, and a querier whose privacy budget is
// exhausted gets a 403 with the error envelope, not a 500.
func TestGatewayPermanentErrorsAreNot5xx(t *testing.T) {
	for _, permanent := range permanentErrors {
		if code := statusFor(fmt.Errorf("wrapped: %w", permanent)); code >= 500 {
			t.Errorf("%v maps to %d, a status clients retry", permanent, code)
		}
	}
	if code := statusFor(core.ErrBadParams); code != http.StatusBadRequest {
		t.Errorf("ErrBadParams maps to %d, want 400", code)
	}

	p := testParams()
	p.Epsilon = 0.5
	fed, err := NewDeterministic([]string{"A", "B"}, p, 42, 7)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewParty("A2", PartyConfig{Params: p, Seed: 42, RNGSeed: 1, Budget: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.Server.Register(tight); err != nil {
		t.Fatal(err)
	}
	fed.Parties = append(fed.Parties, tight)
	b, _ := fed.Party("B")
	mustIngest(t, b, 0, []textkit.TermID{1, 2})
	ts := httptest.NewServer(HTTPHandler(fed.Server))
	defer ts.Close()
	// Two terms at epsilon 0.5 each overrun the 0.5 budget against B.
	resp, err := http.Post(ts.URL+"/v1/search", "application/json",
		strings.NewReader(`{"from":"A2","terms":[1,2],"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env httpError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusForbidden || env.Error == "" ||
		env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("budget-exhausted search: status %d, envelope %+v", resp.StatusCode, env)
	}
}
