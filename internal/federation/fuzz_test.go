package federation

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
	"csfltr/internal/wire"
)

// fuzzFed is the two-party federation the gateway fuzz targets run
// against: party A holds two documents, party B none.
func fuzzFed(f *testing.F) *Federation {
	f.Helper()
	fed, err := NewDeterministic([]string{"A", "B"}, testParams(), 42, 7)
	if err != nil {
		f.Fatal(err)
	}
	a, _ := fed.Party("A")
	if err := a.IngestAll([]*textkit.Document{doc(0, 5, 5, 6), doc(1, 6, 7)}); err != nil {
		f.Fatal(err)
	}
	return fed
}

// fuzzRoutes are the POST routes the gateway fuzz targets address.
var fuzzRoutes = []string{
	"/v1/parties/A/body/tf",
	"/v1/parties/A/body/rtk",
	"/v1/parties/A/title/tf",
	"/v1/parties/nobody/body/rtk",
}

// checkFuzzStatus fails unless rec holds a documented status with the
// caller's X-Request-ID echoed, and — for anything but a 200 — the JSON
// error envelope echoing it too.
func checkFuzzStatus(t *testing.T, path string, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusMethodNotAllowed, http.StatusInternalServerError:
	default:
		t.Fatalf("%s: unexpected status %d for body %q", path, rec.Code, body)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "fuzz-rid" {
		t.Fatalf("%s: request id not propagated: %q", path, got)
	}
	if rec.Code == http.StatusOK {
		return
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s: non-JSON content type %q (status %d)", path, ct, rec.Code)
	}
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s: error body is not an envelope: %v (%q)", path, err, rec.Body.String())
	}
	if env.Error == "" {
		t.Fatalf("%s: error envelope with empty error (status %d)", path, rec.Code)
	}
	if env.RequestID != "fuzz-rid" {
		t.Fatalf("%s: envelope request id %q, want fuzz-rid", path, env.RequestID)
	}
}

// FuzzHTTPEnvelope hardens the gateway's JSON envelope decoder: for any
// request body thrown at the TF/RTK POST routes the handler must not
// panic, must always answer with a JSON body, must echo the caller's
// X-Request-ID in error envelopes, and must only use the documented
// status codes.
func FuzzHTTPEnvelope(f *testing.F) {
	handler := HTTPHandler(fuzzFed(f).Server)

	f.Add(uint8(0), []byte(`{"doc_id":0,"cols":[1,2,3,4,5,6,7,8,9]}`))
	f.Add(uint8(1), []byte(`{"cols":[1,2,3,4,5,6,7,8,9]}`))
	f.Add(uint8(0), []byte(`{not json`))
	f.Add(uint8(1), []byte(``))
	f.Add(uint8(2), []byte(`{"doc_id":99,"cols":[]}`))
	f.Add(uint8(3), []byte(`{"cols":null}`))
	f.Add(uint8(0), []byte(`{"doc_id":1e309,"cols":[0]}`))
	f.Add(uint8(1), []byte(strings.Repeat(`[`, 10000)))

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("X-Request-ID", "fuzz-rid")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		checkFuzzStatus(t, path, body, rec)
		if rec.Code == http.StatusOK {
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("%s: non-JSON content type %q on a 200", path, ct)
			}
			var ok map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
				t.Fatalf("%s: 200 body is not JSON: %v", path, err)
			}
		}
	})
}

// handlerTransport serves an http.Client's requests from a handler with
// no socket in between.
type handlerTransport struct{ h http.Handler }

func (tr handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	tr.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// FuzzHTTPWireBody hardens the two decoders a remote party's bytes
// reach. Gateway side (modes 0-3, one per fuzzRoutes entry): any bytes
// POSTed as a wire-framed body never panic the handler, draw only the
// documented statuses, fail with the JSON error envelope echoing
// X-Request-ID, and a 200 is a wire frame that decodes — on /rtk one
// frame per query frame of the body, which was then a well-formed batch
// within the cap. Client side (mode 4 AnswerTF, mode 5 AnswerRTK, mode 6
// AnswerRTKBatch of three): an HTTPOwner whose host replies with the
// fuzz bytes returns an error or a well-formed reply — an RTK reply
// survives its own encoding, a version 2 frame re-encodes to itself,
// and the lease the decoder took ends exactly once; a batch reply is
// three well-formed replies or an error and none.
func FuzzHTTPWireBody(f *testing.F) {
	fed := fuzzFed(f)
	handler := HTTPHandler(fed.Server)
	var reply []byte // what the stub host answers with, set per input
	stub := &http.Client{Transport: handlerTransport{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", WireContentType)
		_, _ = w.Write(reply)
	})}}
	owner := NewHTTPOwner("http://party.invalid", "A", FieldBody, stub)

	cols := make([]uint32, testParams().Z)
	for i := range cols {
		cols[i] = uint32(i)
	}
	query := &core.TFQuery{Cols: cols}
	direct, err := fed.Server.OwnerFor("A", FieldBody)
	if err != nil {
		f.Fatal(err)
	}
	tf, err := direct.AnswerTF(0, query)
	if err != nil {
		f.Fatal(err)
	}
	rtk, err := direct.AnswerRTK(query)
	if err != nil {
		f.Fatal(err)
	}
	v2 := wire.AppendRTKResponse(nil, rtk)
	rtk.Release()
	// Descending ids are outside what version 2 lays out: a version 1 frame.
	v1 := wire.AppendRTKResponse(nil, &core.RTKResponse{Cells: []core.RTKCell{
		{IDs: []int32{9, 3}, Values: []float64{1, 2}}, {IDs: []int32{}, Values: []float64{}}}})
	if v2[0] != wire.VersionRTK || v1[0] != wire.Version {
		f.Fatalf("seed frames are versions %d and %d", v2[0], v1[0])
	}
	for mode, frame := range [][]byte{
		0: encodeWireTFRequest(0, cols),
		1: wire.AppendTFQueries(nil, []*core.TFQuery{query}),
		2: encodeWireTFRequest(1, cols),
		3: wire.AppendTFQueries(nil, []*core.TFQuery{query}),
		4: wire.AppendTFResponse(nil, tf),
		5: v2,
	} {
		// Each valid frame, its first half and a bit flip.
		f.Add(uint8(mode), frame)
		f.Add(uint8(mode), frame[:len(frame)/2])
		flipped := bytes.Clone(frame)
		flipped[len(flipped)-1] ^= 0x10
		f.Add(uint8(mode), flipped)
	}
	f.Add(uint8(5), v1)
	f.Add(uint8(5), v1[:len(v1)-2])
	// Batches: three query frames to both /rtk routes and three reply
	// frames to the client — whole, the last frame cut short, bytes after
	// the last — and a query batch above the cap.
	batch := []*core.TFQuery{query, query, query}
	queries := wire.AppendTFQueries(nil, batch)
	replies := slices.Concat(v2, v1, v2)
	for _, mode := range []uint8{1, 3} {
		f.Add(mode, queries)
		f.Add(mode, queries[:len(queries)-2])
		f.Add(mode, append(bytes.Clone(queries), 0))
		f.Add(mode, bytes.Repeat(wire.AppendTFQueries(nil, []*core.TFQuery{query}), core.MaxRTKBatch+1))
	}
	f.Add(uint8(6), replies)
	f.Add(uint8(6), replies[:len(replies)-2])
	f.Add(uint8(6), append(bytes.Clone(replies), 0))
	f.Add(uint8(6), v2)
	f.Add(uint8(0), encodeWireTFRequest(-1, cols))
	f.Add(uint8(1), wire.AppendTFQueries(nil, []*core.TFQuery{{Cols: []uint32{1 << 30, 2, 3, 4, 5, 6, 7, 8, 9}}}))
	f.Add(uint8(1), []byte{})
	f.Add(uint8(4), []byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, mode uint8, payload []byte) {
		switch mode %= 7; mode {
		case 4:
			reply = payload
			if resp, err := owner.AnswerTF(0, query); err == nil && resp == nil {
				t.Fatal("AnswerTF returned neither a reply nor an error")
			}
		case 5:
			reply = payload
			resp, err := owner.AnswerRTK(query)
			if err != nil {
				return
			}
			for i, c := range resp.Cells {
				if len(c.IDs) != len(c.Values) {
					t.Fatalf("cell %d decoded with %d ids and %d values", i, len(c.IDs), len(c.Values))
				}
			}
			frame := wire.AppendRTKResponse(nil, resp)
			again, err := wire.DecodeRTKResponse(frame)
			if err != nil {
				t.Fatalf("a decoded reply does not survive its own encoding: %v", err)
			}
			if twice := wire.AppendRTKResponse(nil, again); frame[0] == wire.VersionRTK && !bytes.Equal(twice, frame) {
				t.Fatalf("a version 2 reply's frame % x decodes, and re-encodes to % x", frame, twice)
			}
			again.Release()
			resp.Release()
			resp.Release() // the second is a no-op: the slabs went back once
			if len(resp.Cells) != 0 {
				t.Fatalf("a released reply still holds %d cells", len(resp.Cells))
			}
			r1, ids1, _ := core.NewRTKResponse(1, 1)
			r2, ids2, _ := core.NewRTKResponse(1, 1)
			if &ids1[0] == &ids2[0] {
				t.Fatal("two live replies share one id slab: a reply was released twice")
			}
			r1.Release()
			r2.Release()
		case 6:
			reply = payload
			resps, err := owner.AnswerRTKBatch(batch)
			if err != nil {
				if resps != nil {
					t.Fatalf("AnswerRTKBatch failed with %v and still returned %d replies", err, len(resps))
				}
				return
			}
			if len(resps) != len(batch) {
				t.Fatalf("%d replies to %d queries", len(resps), len(batch))
			}
			for n, resp := range resps {
				for i, c := range resp.Cells {
					if len(c.IDs) != len(c.Values) {
						t.Fatalf("reply %d cell %d decoded with %d ids and %d values", n, i, len(c.IDs), len(c.Values))
					}
				}
				resp.Release()
			}
		default:
			path := fuzzRoutes[mode]
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(payload))
			req.Header.Set("Content-Type", WireContentType)
			req.Header.Set("Accept", WireContentType)
			req.Header.Set("X-Request-ID", "fuzz-rid")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)

			checkFuzzStatus(t, path, payload, rec)
			if rec.Code != http.StatusOK {
				return
			}
			if ct := rec.Header().Get("Content-Type"); ct != WireContentType {
				t.Fatalf("%s: 200 in content type %q", path, ct)
			}
			if strings.HasSuffix(path, "/tf") {
				if _, err := wire.DecodeTFResponse(rec.Body.Bytes()); err != nil {
					t.Fatalf("%s: 200 body is not a TF frame: %v", path, err)
				}
				return
			}
			asked, err := wire.DecodeTFQueries(payload, core.MaxRTKBatch)
			if err != nil {
				t.Fatalf("%s: 200 to a body that is not a batch of queries: %v", path, err)
			}
			resps := make([]*core.RTKResponse, len(asked))
			if err := wire.DecodeRTKResponses(rec.Body.Bytes(), resps); err != nil {
				t.Fatalf("%s: 200 body is not the %d RTK frames asked for: %v", path, len(asked), err)
			}
			for _, resp := range resps {
				resp.Release()
			}
		}
	})
}
