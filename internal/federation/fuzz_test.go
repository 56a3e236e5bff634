package federation

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/textkit"
	"csfltr/internal/wire"
)

// FuzzHTTPEnvelope hardens the gateway's JSON envelope decoder: for any
// request body thrown at the TF/RTK POST routes the handler must not
// panic, must always answer with a JSON body, must echo the caller's
// X-Request-ID in error envelopes, and must only use the documented
// status codes.
func FuzzHTTPEnvelope(f *testing.F) {
	fed, err := NewDeterministic([]string{"A", "B"}, testParams(), 42, 7)
	if err != nil {
		f.Fatal(err)
	}
	a, _ := fed.Party("A")
	if err := a.IngestAll([]*textkit.Document{doc(0, 5, 5, 6), doc(1, 6, 7)}); err != nil {
		f.Fatal(err)
	}
	handler := HTTPHandler(fed.Server)

	f.Add(uint8(0), []byte(`{"doc_id":0,"cols":[1,2,3,4,5,6,7,8,9]}`))
	f.Add(uint8(1), []byte(`{"cols":[1,2,3,4,5,6,7,8,9]}`))
	f.Add(uint8(0), []byte(`{not json`))
	f.Add(uint8(1), []byte(``))
	f.Add(uint8(2), []byte(`{"doc_id":99,"cols":[]}`))
	f.Add(uint8(3), []byte(`{"cols":null}`))
	f.Add(uint8(0), []byte(`{"doc_id":1e309,"cols":[0]}`))
	f.Add(uint8(1), []byte(strings.Repeat(`[`, 10000)))

	routes := []string{
		"/v1/parties/A/body/tf",
		"/v1/parties/A/body/rtk",
		"/v1/parties/A/title/tf",
		"/v1/parties/nobody/body/rtk",
	}
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusConflict: true, http.StatusMethodNotAllowed: true,
		http.StatusInternalServerError: true,
	}

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("X-Request-ID", "fuzz-rid")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		if !allowed[rec.Code] {
			t.Fatalf("%s: unexpected status %d for body %q", path, rec.Code, body)
		}
		if got := rec.Header().Get("X-Request-ID"); got != "fuzz-rid" {
			t.Fatalf("%s: request id not propagated: %q", path, got)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: non-JSON content type %q (status %d)", path, ct, rec.Code)
		}
		if rec.Code == http.StatusOK {
			var ok map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
				t.Fatalf("%s: 200 body is not JSON: %v", path, err)
			}
			return
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
	})
}

// gobBytes encodes a value for the FuzzRPCDecode seed corpus.
func gobBytes(f *testing.F, v any) []byte {
	f.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRPCDecode hardens the net/rpc message decode path: for any byte
// stream presented as a gob-encoded argument struct, decoding plus the
// dispatched RPCService method must not panic. Malformed streams must
// fail in the decoder; well-formed but hostile arguments (unknown
// parties, out-of-range sketch columns, absurd document ids) must come
// back as ordinary errors from the service. The fifth method is the
// client's side of AnswerRTK: the stream is a gob-encoded RTKReply,
// whose body is a version 2 wire frame — it fails in the decoder, or
// the reply's own frame decodes and encodes back to itself.
func FuzzRPCDecode(f *testing.F) {
	fed, err := NewDeterministic([]string{"A", "B"}, testParams(), 42, 7)
	if err != nil {
		f.Fatal(err)
	}
	a, _ := fed.Party("A")
	if err := a.IngestAll([]*textkit.Document{doc(0, 5, 5, 6), doc(1, 6, 7)}); err != nil {
		f.Fatal(err)
	}
	svc := &RPCService{server: fed.Server}

	cols := make([]uint32, testParams().Z)
	for i := range cols {
		cols[i] = uint32(i)
	}
	valid := [][]byte{
		gobBytes(f, &DocIDsArgs{Party: "A", Field: FieldBody}),
		gobBytes(f, &DocMetaArgs{Party: "A", Field: FieldBody, DocID: 0}),
		gobBytes(f, &TFArgs{Party: "A", Field: FieldBody, DocID: 0, Query: core.TFQuery{Cols: cols}}),
		gobBytes(f, &RTKArgs{Party: "A", Field: FieldTitle, Query: core.TFQuery{Cols: cols}}),
	}
	for method, payload := range valid {
		f.Add(uint8(method), payload)
		// Truncated and bit-flipped variants of each valid stream.
		f.Add(uint8(method), payload[:len(payload)/2])
		flipped := bytes.Clone(payload)
		flipped[len(flipped)-1] ^= 0xff
		f.Add(uint8(method), flipped)
	}
	f.Add(uint8(1), gobBytes(f, &DocMetaArgs{Party: "nobody", Field: Field(99), DocID: -1}))
	f.Add(uint8(3), gobBytes(f, &RTKArgs{Party: "A", Field: FieldBody,
		Query: core.TFQuery{Cols: []uint32{1 << 30, 2, 3, 4, 5, 6, 7, 8, 9}}}))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), []byte{0xff, 0xff, 0xff, 0xff})
	var rtk RTKReply
	if err := svc.AnswerRTK(&RTKArgs{Party: "A", Field: FieldBody, Query: core.TFQuery{Cols: cols}}, &rtk); err != nil {
		f.Fatal(err)
	}
	reply := gobBytes(f, &rtk)
	f.Add(uint8(4), reply)
	f.Add(uint8(4), reply[:len(reply)-2])
	flipped := bytes.Clone(reply)
	flipped[len(flipped)-1] ^= 0x10
	f.Add(uint8(4), flipped)

	f.Fuzz(func(t *testing.T, method uint8, payload []byte) {
		dec := gob.NewDecoder(bytes.NewReader(payload))
		switch method % 5 {
		case 0:
			var args DocIDsArgs
			if dec.Decode(&args) != nil {
				return
			}
			var reply DocIDsReply
			_ = svc.DocIDs(&args, &reply)
		case 1:
			var args DocMetaArgs
			if dec.Decode(&args) != nil {
				return
			}
			var reply DocMetaReply
			_ = svc.DocMeta(&args, &reply)
		case 2:
			var args TFArgs
			if dec.Decode(&args) != nil {
				return
			}
			var reply TFReply
			_ = svc.AnswerTF(&args, &reply)
		case 3:
			var args RTKArgs
			if dec.Decode(&args) != nil {
				return
			}
			var reply RTKReply
			_ = svc.AnswerRTK(&args, &reply)
		case 4:
			var reply RTKReply
			if dec.Decode(&reply) != nil {
				return
			}
			frame, _ := reply.GobEncode()
			var again RTKReply
			if err := again.GobDecode(frame); err != nil {
				t.Fatalf("a decoded reply does not survive its own encoding: %v", err)
			}
			if twice, _ := again.GobEncode(); frame[0] == wire.VersionRTK && !bytes.Equal(twice, frame) {
				t.Fatalf("a version 2 reply's frame % x decodes, and re-encodes to % x", frame, twice)
			}
		}
	})
}
