package federation

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/wire"
)

// postRawJSON POSTs a JSON body the way a non-Go client would — no
// Accept header, no wire media type — decodes the 200 reply into out and
// returns the reply's size in bytes.
func postRawJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("POST %s: status %d, content type %q: %s", url, resp.StatusCode, ct, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("POST %s: reply is not JSON: %v", url, err)
	}
	return len(data)
}

// TestHTTPWireNegotiation: the JSON routes are the public surface for
// clients outside Go and HTTPOwner speaks only wire frames, so at
// Epsilon = 0 a raw JSON POST and HTTPOwner must get the same answer
// from /tf and /rtk, bit for bit.
func TestHTTPWireNegotiation(t *testing.T) {
	_, ts := httpFed(t)
	owner := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
	q := &core.TFQuery{Cols: []uint32{1, 7, 42, 301, 8, 99, 200, 450, 3}}
	const cols = `"cols":[1,7,42,301,8,99,200,450,3]`

	var rawTF httpTFResponse
	postRawJSON(t, ts.URL+"/v1/parties/B/body/tf", `{"doc_id":0,`+cols+`}`, &rawTF)
	gotTF, err := owner.AnswerTF(0, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawTF.Values) != len(q.Cols) || !reflect.DeepEqual(gotTF.Values, rawTF.Values) {
		t.Fatalf("TF diverged:\n wire %v\n json %v", gotTF.Values, rawTF.Values)
	}

	var rawRTK httpRTKResponse
	postRawJSON(t, ts.URL+"/v1/parties/B/body/rtk", `{`+cols+`}`, &rawRTK)
	gotRTK, err := owner.AnswerRTK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawRTK.Cells) != len(q.Cols) || len(gotRTK.Cells) != len(rawRTK.Cells) {
		t.Fatalf("RTK cell count: wire %d, json %d, want %d", len(gotRTK.Cells), len(rawRTK.Cells), len(q.Cols))
	}
	entries := 0
	for i, c := range rawRTK.Cells {
		entries += len(c.IDs)
		if !slices.Equal(gotRTK.Cells[i].IDs, c.IDs) || !slices.Equal(gotRTK.Cells[i].Values, c.Values) {
			t.Fatalf("RTK cell %d diverged:\n wire %+v\n json %+v", i, gotRTK.Cells[i], c)
		}
	}
	if entries == 0 {
		t.Fatal("RTK query addressed only empty cells; the comparison is vacuous")
	}
}

// TestHTTPWireRejectsNonWireReply: a 200 in any media type but the wire
// one is an error — never a silent decode of something else — while a
// wire reply an intermediary re-chunked (no Content-Length) still reads.
func TestHTTPWireRejectsNonWireReply(t *testing.T) {
	_, ts := httpFed(t)
	q := &core.TFQuery{Cols: []uint32{2, 8, 11, 70, 140, 300, 410, 17, 33}}

	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"cells":[],"values":[]}`))
	}))
	defer jsonOnly.Close()
	owner := NewHTTPOwner(jsonOnly.URL, "B", FieldBody, jsonOnly.Client())
	if resp, err := owner.AnswerRTK(q); err == nil || !strings.Contains(err.Error(), WireContentType) {
		t.Fatalf("JSON 200 to AnswerRTK: resp %+v, err %v", resp, err)
	}
	if resp, err := owner.AnswerTF(0, q); err == nil || !strings.Contains(err.Error(), WireContentType) {
		t.Fatalf("JSON 200 to AnswerTF: resp %+v, err %v", resp, err)
	}

	rechunk := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r2, _ := http.NewRequest(r.Method, ts.URL+r.URL.Path, r.Body)
		r2.Header = r.Header.Clone()
		resp, err := ts.Client().Do(r2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		w.(http.Flusher).Flush() // headers leave before the length is known: chunked
		_, _ = io.Copy(w, resp.Body)
	}))
	defer rechunk.Close()
	want, err := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client()).AnswerRTK(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewHTTPOwner(rechunk.URL, "B", FieldBody, rechunk.Client()).AnswerRTK(q)
	if err != nil {
		t.Fatalf("chunked wire reply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked wire reply diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestHTTPWireBadBody: a malformed wire body must be a clean 400, not a
// panic or a misdecode.
func TestHTTPWireBadBody(t *testing.T) {
	_, ts := httpFed(t)
	for _, path := range []string{"/v1/parties/B/body/tf", "/v1/parties/B/body/rtk"} {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader("\x01\x02garbage"))
		req.Header.Set("Content-Type", WireContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestHTTPWireBatch: /rtk takes k query frames back to back and answers
// k reply frames under one Content-Length — at Epsilon = 0 the replies
// the same queries get one by one — through HTTPOwner.AnswerRTKBatch
// and as raw bytes. A body with bytes after its last frame, with its
// last frame cut short or with more frames than core.MaxRTKBatch is a
// 400 with the JSON envelope and nothing else; so is a batch from a
// client that does not accept wire frames, JSON being single-query.
func TestHTTPWireBatch(t *testing.T) {
	fed, ts := httpFed(t)
	owner := NewHTTPOwner(ts.URL, "B", FieldBody, ts.Client())
	direct, err := fed.Server.OwnerFor("B", FieldBody)
	if err != nil {
		t.Fatal(err)
	}
	qs := []*core.TFQuery{
		{Cols: []uint32{1, 7, 42, 301, 8, 99, 200, 450, 3}},
		{Cols: []uint32{2, 8, 11, 70, 140, 300, 410, 17, 33}},
		{Cols: []uint32{5, 5, 5, 5, 5, 5, 5, 5, 5}},
	}
	var want []*core.RTKResponse
	var frames []byte
	entries := 0
	for _, q := range qs {
		resp, err := direct.AnswerRTK(q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, resp)
		frames = wire.AppendRTKResponse(frames, resp)
		for _, c := range resp.Cells {
			entries += len(c.IDs)
		}
	}
	if entries == 0 {
		t.Fatal("the queries addressed only empty cells; the comparison is vacuous")
	}
	got, err := owner.AnswerRTKBatch(qs)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("AnswerRTKBatch over HTTP: %+v (%v)\nwant %+v", got, err, want)
	}

	post := func(body []byte, accept string) (int, string, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/parties/B/body/rtk", bytes.NewReader(body))
		req.Header.Set("Content-Type", WireContentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), data
	}
	body := wire.AppendTFQueries(nil, qs)
	if code, ct, data := post(body, WireContentType); code != http.StatusOK || ct != WireContentType || !bytes.Equal(data, frames) {
		t.Fatalf("raw batch: status %d, content type %q, %d bytes; want the %d bytes of the three single replies", code, ct, len(data), len(frames))
	}
	over := make([]*core.TFQuery, core.MaxRTKBatch+1)
	for i := range over {
		over[i] = qs[i%len(qs)]
	}
	for name, tc := range map[string]struct {
		body   []byte
		accept string
	}{
		"bytes after the last frame": {append(bytes.Clone(body), 0x01), WireContentType},
		"last frame cut short":       {body[:len(body)-2], WireContentType},
		"above the cap":              {wire.AppendTFQueries(nil, over), WireContentType},
		"batch, JSON reply":          {body, ""},
	} {
		code, ct, data := post(tc.body, tc.accept)
		var env httpError
		if code != http.StatusBadRequest || ct != "application/json" || json.Unmarshal(data, &env) != nil ||
			env.Error == "" || env.RequestID == "" {
			t.Errorf("%s: status %d, content type %q, body %q; want a 400 with the JSON envelope", name, code, ct, data)
		}
	}
	// A single wire query to a JSON-accepting client is still answered.
	if code, ct, _ := post(wire.AppendTFQueries(nil, []*core.TFQuery{qs[0]}), ""); code != http.StatusOK || ct != "application/json" {
		t.Fatalf("single wire query, JSON reply: status %d, content type %q", code, ct)
	}
}

// TestTransportBytesAccounting: the same search charged under both
// codecs — the wire accounting must come in well under raw, and the
// ranking must be identical (the codec changes bytes, never results).
func TestTransportBytesAccounting(t *testing.T) {
	fed := twoPartyFed(t, testParams())
	srv := fed.Server

	rawRes, err := fed.Search("A", []uint64{5, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rawRTK := srv.TransportBytes(codecRaw, apiRTK)
	rawAll := srv.TransportBytes(codecRaw, "")
	if rawRTK == 0 || rawAll == 0 {
		t.Fatalf("raw transport bytes not recorded: rtk=%d all=%d", rawRTK, rawAll)
	}
	if srv.TransportBytes(codecWire, "") != 0 {
		t.Fatal("wire bytes recorded while codec off")
	}

	srv.ResetTraffic()
	if srv.TransportBytes(codecRaw, "") != 0 {
		t.Fatal("ResetTraffic did not clear transport series")
	}
	srv.SetWireCodec(true)
	defer srv.SetWireCodec(false)
	wireRes, err := fed.Search("A", []uint64{5, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wireRTK := srv.TransportBytes(codecWire, apiRTK)
	if wireRTK == 0 {
		t.Fatal("wire transport bytes not recorded")
	}
	if wireRTK*2 > rawRTK {
		t.Fatalf("wire rtk bytes %d not under half of raw %d", wireRTK, rawRTK)
	}
	if !reflect.DeepEqual(wireRes.Hits, rawRes.Hits) {
		t.Fatalf("codec changed the ranking:\n got %+v\nwant %+v", wireRes.Hits, rawRes.Hits)
	}
}
