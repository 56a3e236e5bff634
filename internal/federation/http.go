package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/telemetry"
	"csfltr/internal/wire"
)

// HTTP transport: a gateway over the OwnerAPI surface, and the one way a
// party in another process is reached. The sketch endpoints (/tf, /rtk)
// take and return either JSON — the public surface for clients outside
// the Go ecosystem — or internal/wire frames, which is all HTTPOwner
// speaks. Routes:
//
//	GET  /v1/parties                                  -> {"parties": [...]}
//	GET  /v1/parties/{name}/{field}/docs              -> {"ids": [...]}
//	GET  /v1/parties/{name}/{field}/docs/{id}/meta    -> {"length": L, "unique": U}
//	POST /v1/parties/{name}/{field}/tf                -> perturbed values
//	POST /v1/parties/{name}/{field}/rtk               -> RTK cells
//	GET  /v1/metrics                                  -> Prometheus text format
//	GET  /v1/cache                                    -> answer-cache counters (404 when disabled)
//
// field is "body" or "title". POST bodies carry the obfuscated column
// vector; the gateway never sees hash keys or private index sets, same
// as the coordinating server it fronts.
//
// Every route runs behind middleware that assigns (or propagates) an
// X-Request-ID, counts requests and errors per route, times them into a
// latency histogram and tracks in-flight requests; wrong-method requests
// get a JSON 405 with an Allow header. Error envelopes echo the request
// ID so a client report can be joined against server telemetry.

// httpTFRequest is the JSON POST /tf body.
type httpTFRequest struct {
	DocID int      `json:"doc_id"`
	Cols  []uint32 `json:"cols"`
}

// httpTFResponse is the POST /tf reply.
type httpTFResponse struct {
	Values []float64 `json:"values"`
}

// httpRTKRequest is the JSON POST /rtk body.
type httpRTKRequest struct {
	Cols []uint32 `json:"cols"`
}

// httpRTKCell mirrors core.RTKCell in JSON.
type httpRTKCell struct {
	IDs    []int32   `json:"ids"`
	Values []float64 `json:"values"`
}

// httpRTKResponse is the POST /rtk reply.
type httpRTKResponse struct {
	Cells []httpRTKCell `json:"cells"`
}

// httpSearchRequest is the POST /v1/search body: a whole federated
// query from one party.
type httpSearchRequest struct {
	From  string   `json:"from"`
	Terms []uint64 `json:"terms"`
	K     int      `json:"k"`
}

// httpSearchHit mirrors SearchHit in JSON.
type httpSearchHit struct {
	Party string  `json:"party"`
	DocID int     `json:"doc_id"`
	Score float64 `json:"score"`
}

// httpPartyReport mirrors the availability part of PartyReport.
type httpPartyReport struct {
	Party   string `json:"party"`
	Outcome string `json:"outcome"`
	Err     string `json:"error,omitempty"`
	Cached  int    `json:"cached,omitempty"`
}

// httpSearchResponse is the POST /v1/search reply.
type httpSearchResponse struct {
	Hits    []httpSearchHit   `json:"hits"`
	Partial bool              `json:"partial,omitempty"`
	Parties []httpPartyReport `json:"parties"`
	TraceID string            `json:"trace_id,omitempty"`
}

// httpError is the uniform error envelope. RequestID echoes the
// X-Request-ID the middleware assigned (or propagated) so client-side
// reports can be joined against server telemetry.
type httpError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// maxHTTPBody caps request bodies (column vectors are tiny).
const maxHTTPBody = 1 << 20

// requestIDKey is the context key the middleware stores the request ID
// under.
type requestIDKey struct{}

// HTTPRequestID returns the request ID assigned to r by the gateway
// middleware ("" outside a gateway request).
func HTTPRequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// Trace-propagation headers, carried alongside X-Request-ID. A caller
// inside a traced federation search stamps both; the gateway parents its
// route span (and the party-side work under it) below the caller's span
// so the coordinator-side tree stays coherent across process hops.
const (
	headerTraceID     = "X-Trace-ID"
	headerTraceParent = "X-Trace-Parent"
)

// traceCtxKey is the context key for the propagated span context.
type traceCtxKey struct{}

// HTTPTraceContext returns the span context propagated to r via the
// X-Trace-* headers (zero value when the request was untraced or the
// server has tracing disabled).
func HTTPTraceContext(r *http.Request) telemetry.SpanContext {
	ctx, _ := r.Context().Value(traceCtxKey{}).(telemetry.SpanContext)
	return ctx
}

// statusWriter captures the response status for route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// HTTPHandler exposes the federation server as an http.Handler,
// including the /v1/metrics Prometheus route over the server's registry.
func HTTPHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	handle := func(method, pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, instrumentHTTP(s, method, route, h))
	}
	handle(http.MethodGet, "/v1/parties", "/v1/parties", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string][]string{"parties": s.PartyNames()})
	})
	handle(http.MethodGet, "/v1/metrics", "/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		telemetry.Handler(s.Metrics()).ServeHTTP(w, r)
	})
	handle(http.MethodGet, "/v1/cache", "/v1/cache", func(w http.ResponseWriter, r *http.Request) {
		stats, ok := s.CacheStats()
		if !ok {
			writeError(w, r, http.StatusNotFound, "federation: answer cache not enabled")
			return
		}
		writeJSON(w, http.StatusOK, stats)
	})
	handle(http.MethodGet, "/v1/events", "/v1/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"events": s.Metrics().Events()})
	})
	handle(http.MethodGet, "/v1/audit", "/v1/audit", func(w http.ResponseWriter, r *http.Request) {
		if !s.TracingEnabled() {
			writeError(w, r, http.StatusNotFound, "federation: tracing not enabled")
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"records": s.AuditRecords(),
			"slow":    s.Metrics().SlowQueries(),
		})
	})
	handle(http.MethodGet, "/v1/trace/{id}", "/v1/trace/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		spans, haveSpans := s.TraceTree(id)
		audit, haveAudit := s.AuditFor(id)
		if !haveSpans && !haveAudit {
			writeError(w, r, http.StatusNotFound, "federation: unknown trace "+id)
			return
		}
		out := map[string]any{"trace_id": id, "spans": spans}
		if haveAudit {
			out["audit"] = audit
		}
		writeJSON(w, http.StatusOK, out)
	})
	handle(http.MethodPost, "/v1/search", "/v1/search", func(w http.ResponseWriter, r *http.Request) {
		fn := s.searcher.Load()
		if fn == nil {
			writeError(w, r, http.StatusNotFound, "federation: no search backend attached")
			return
		}
		// The body is read before queueing: net/http only watches the
		// connection for a client disconnect (cancelling r.Context())
		// once the request body has been consumed.
		var req httpSearchRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.From == "" || len(req.Terms) == 0 {
			writeError(w, r, http.StatusBadRequest, "federation: search needs from and terms")
			return
		}
		if a := s.admission.Load(); a != nil {
			release, ok, reason := a.admit(r.Context())
			if !ok {
				w.Header().Set("Retry-After",
					strconv.Itoa(int((DefaultRetryAfter+time.Second-1)/time.Second)))
				writeError(w, r, http.StatusTooManyRequests, "federation: overloaded: "+reason)
				return
			}
			defer release()
		}
		res, traceID, err := (*fn)(req.From, req.Terms, req.K)
		if err != nil {
			writeError(w, r, statusFor(err), err.Error())
			return
		}
		out := httpSearchResponse{
			Hits:    make([]httpSearchHit, len(res.Hits)),
			Partial: res.Partial,
			Parties: make([]httpPartyReport, len(res.Parties)),
			TraceID: traceID,
		}
		for i, h := range res.Hits {
			out.Hits[i] = httpSearchHit{Party: h.Party, DocID: h.DocID, Score: h.Score}
		}
		for i, p := range res.Parties {
			out.Parties[i] = httpPartyReport{Party: p.Party, Outcome: p.Outcome, Err: p.Err, Cached: p.Cached}
		}
		writeJSON(w, http.StatusOK, out)
	})
	handle(http.MethodGet, "/v1/parties/{name}/{field}/docs", "/v1/parties/{name}/{field}/docs",
		func(w http.ResponseWriter, r *http.Request) {
			owner, ok := resolveOwner(w, r, s)
			if !ok {
				return
			}
			writeJSON(w, http.StatusOK, map[string][]int{"ids": owner.DocIDs()})
		})
	handle(http.MethodGet, "/v1/parties/{name}/{field}/docs/{id}/meta", "/v1/parties/{name}/{field}/docs/{id}/meta",
		func(w http.ResponseWriter, r *http.Request) {
			owner, ok := resolveOwner(w, r, s)
			if !ok {
				return
			}
			id, err := strconv.Atoi(r.PathValue("id"))
			if err != nil {
				writeError(w, r, http.StatusBadRequest, "invalid doc id")
				return
			}
			length, unique, err := owner.DocMeta(id)
			if err != nil {
				writeError(w, r, statusFor(err), err.Error())
				return
			}
			writeJSON(w, http.StatusOK, map[string]int{"length": length, "unique": unique})
		})
	handle(http.MethodPost, "/v1/parties/{name}/{field}/tf", "/v1/parties/{name}/{field}/tf",
		func(w http.ResponseWriter, r *http.Request) {
			owner, ok := resolveOwner(w, r, s)
			if !ok {
				return
			}
			var docID int
			var cols []uint32
			if wireRequest(r) {
				body, ok := readWireBody(w, r)
				if !ok {
					return
				}
				var err error
				if docID, cols, err = decodeWireTFRequest(body); err != nil {
					writeError(w, r, http.StatusBadRequest, "invalid wire body: "+err.Error())
					return
				}
			} else {
				var req httpTFRequest
				if !readJSON(w, r, &req) {
					return
				}
				docID, cols = req.DocID, req.Cols
			}
			resp, err := owner.AnswerTF(docID, &core.TFQuery{Cols: cols})
			if err != nil {
				writeError(w, r, statusFor(err), err.Error())
				return
			}
			if wantsWire(r) {
				frame := frameBufs.Get().(*[]byte)
				*frame = wire.AppendTFResponse((*frame)[:0], resp)
				resp.Release() // the frame is a copy
				writeWire(w, frame)
				return
			}
			writeJSON(w, http.StatusOK, httpTFResponse{Values: resp.Values})
			resp.Release() // the body aliased its values until it was encoded
		})
	handle(http.MethodPost, "/v1/parties/{name}/{field}/rtk", "/v1/parties/{name}/{field}/rtk",
		func(w http.ResponseWriter, r *http.Request) {
			owner, ok := resolveOwner(w, r, s)
			if !ok {
				return
			}
			// A wire body is one query frame or a batch of them back to
			// back; JSON, the public surface, carries a single query.
			var qs []*core.TFQuery
			if wireRequest(r) {
				body, ok := readWireBody(w, r)
				if !ok {
					return
				}
				var err error
				if qs, err = wire.DecodeTFQueries(body, core.MaxRTKBatch); err != nil {
					writeError(w, r, http.StatusBadRequest, "invalid wire body: "+err.Error())
					return
				}
			} else {
				var req httpRTKRequest
				if !readJSON(w, r, &req) {
					return
				}
				qs = []*core.TFQuery{{Cols: req.Cols}}
			}
			if len(qs) > 1 && !wantsWire(r) {
				writeError(w, r, http.StatusBadRequest, "federation: a batch is answered in wire frames only")
				return
			}
			resps := make([]*core.RTKResponse, len(qs))
			if err := core.AnswerRTKs(owner, qs, resps); err != nil {
				writeError(w, r, statusFor(err), err.Error())
				return
			}
			if wantsWire(r) {
				frame := frameBufs.Get().(*[]byte)
				*frame = wire.AppendRTKResponses((*frame)[:0], resps)
				for _, resp := range resps {
					resp.Release() // the frame is a copy
				}
				writeWire(w, frame)
				return
			}
			resp := resps[0]
			out := httpRTKResponse{Cells: make([]httpRTKCell, len(resp.Cells))}
			for i, c := range resp.Cells {
				ids, vals := c.IDs, c.Values
				if ids == nil { // an empty cell is the zero RTKCell: JSON clients read [], not null
					ids, vals = []int32{}, []float64{}
				}
				out.Cells[i] = httpRTKCell{IDs: ids, Values: vals}
			}
			writeJSON(w, http.StatusOK, out)
			resp.Release() // out aliased its rows until the body was encoded
		})
	// Catch-all so unknown paths also get the JSON envelope, a request
	// ID and a metrics sample (route label "other").
	handle("", "/", "other", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, r, http.StatusNotFound, "no such route")
	})
	return mux
}

// statusOK is the code label of a 200, the one answer every route gives
// most, spelt out so that counting it builds no string.
const statusOK = "200"

// codeLabel renders an HTTP status as the code label.
func codeLabel(code int) string {
	if code == http.StatusOK {
		return statusOK
	}
	return strconv.Itoa(code)
}

// instrumentHTTP wraps one route handler with the gateway middleware:
// request-ID assignment/propagation, trace-context propagation via the
// X-Trace-* headers, method enforcement (405 + Allow), the in-flight
// gauge, the per-route latency histogram and the per-route/status
// request and error counters. method "" accepts any. A route exports
// its latency and its count of 200s from the moment it is built.
func instrumentHTTP(s *Server, method, route string, h http.HandlerFunc) http.Handler {
	m := s.metrics()
	m.histogram(MetricHTTPDuration, telemetry.L("route", route))
	m.counter(MetricHTTPRequests, telemetry.L("route", route), telemetry.L("code", statusOK))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := s.metrics()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = telemetry.RequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))

		m.httpInFlight.Inc()
		defer m.httpInFlight.Dec()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		parent := telemetry.SpanContext{
			TraceID: r.Header.Get(headerTraceID),
			SpanID:  r.Header.Get(headerTraceParent),
		}
		sp := m.reg.StartChildSpan("http."+route, parent,
			m.histogram(MetricHTTPDuration, telemetry.L("route", route)))
		if ctx := sp.Context(); ctx.Valid() {
			sp.AddAttr(telemetry.AStr("transport", transportHTTP))
			sp.SetRequestID(rid)
			w.Header().Set(headerTraceID, ctx.TraceID)
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, ctx))
		}
		switch {
		case method == "" || r.Method == method,
			method == http.MethodGet && r.Method == http.MethodHead:
			h(sw, r)
		default:
			sw.Header().Set("Allow", method)
			writeError(sw, r, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
		}
		sp.End()
		m.counter(MetricHTTPRequests, telemetry.L("route", route), telemetry.L("code", codeLabel(sw.code))).Inc()
		if sw.code >= 400 {
			m.counter(MetricHTTPErrors, telemetry.L("route", route)).Inc()
		}
	})
}

// resolveOwner extracts {name}/{field} and resolves the routed owner —
// re-parented under the request's propagated span context when present —
// writing the error response itself on failure.
func resolveOwner(w http.ResponseWriter, r *http.Request, s *Server) (core.OwnerAPI, bool) {
	field, err := parseField(r.PathValue("field"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return nil, false
	}
	owner, err := s.OwnerFor(r.PathValue("name"), field)
	if err != nil {
		writeError(w, r, statusFor(err), err.Error())
		return nil, false
	}
	if tc, ok := owner.(traceCarrier); ok {
		owner = tc.WithTrace(HTTPTraceContext(r)) // itself when the request is untraced
	}
	return owner, true
}

// parseField maps the path segment to a Field.
func parseField(s string) (Field, error) {
	switch strings.ToLower(s) {
	case "body":
		return FieldBody, nil
	case "title":
		return FieldTitle, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownField, s)
	}
}

// statusFor maps protocol errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownParty), errors.Is(err, core.ErrUnknownDoc):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadQuery), errors.Is(err, core.ErrBadParams),
		errors.Is(err, ErrUnknownField), errors.Is(err, ErrSelfQuery):
		return http.StatusBadRequest
	case errors.Is(err, dp.ErrBudgetExceeded):
		// A privacy refusal, not a crash: permanent, so not a 5xx a client
		// would retry.
		return http.StatusForbidden
	case errors.Is(err, core.ErrNoSketches):
		return http.StatusConflict
	case errors.Is(err, ErrQuorum):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes a JSON response with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error envelope, echoing the request ID.
func writeError(w http.ResponseWriter, r *http.Request, status int, msg string) {
	writeJSON(w, status, httpError{Error: msg, RequestID: HTTPRequestID(r)})
}

// wireRequest reports whether the request body is wire-framed.
func wireRequest(r *http.Request) bool {
	return isWireContent(r.Header.Get("Content-Type"))
}

// wantsWire reports whether the client asked for a wire-framed response.
// Anything else (including no Accept at all) gets JSON, so codec-unaware
// clients keep working against a codec-aware gateway.
func wantsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), WireContentType)
}

// isWireContent matches the wire media type, with or without parameters.
func isWireContent(ct string) bool {
	return ct == WireContentType || strings.HasPrefix(ct, WireContentType+";")
}

// readWireBody reads a bounded wire-framed body, writing the error
// response on failure.
func readWireBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxHTTPBody))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "unreadable body")
		return nil, false
	}
	return body, true
}

// frameBufs recycles the buffers wire frames are encoded into (gateway)
// and read into (HTTPOwner). A decoded reply never refers to its frame,
// so a buffer goes back as soon as it is written or decoded.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// putFrame recycles frame unless it grew past what a sketch reply needs;
// one outsized reply must not stay pinned in the pool.
func putFrame(frame *[]byte) {
	if cap(*frame) <= 1<<20 {
		frameBufs.Put(frame)
	}
}

// writeWire writes a wire-framed success response and recycles frame.
// The length is known, so it is declared: no chunked framing.
func writeWire(w http.ResponseWriter, frame *[]byte) {
	w.Header().Set("Content-Type", WireContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(*frame)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*frame)
	putFrame(frame)
}

// readJSON decodes a bounded JSON body, writing the error response on
// failure.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxHTTPBody))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "unreadable body")
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return false
	}
	return true
}

// HTTPOwner is a core.OwnerAPI backed by the HTTP gateway — the Go
// client of a remote party. Construct with NewHTTPOwner. The
// sketch endpoints (/tf, /rtk) carry internal/wire frames in both
// directions; the roster and metadata calls are JSON. A trace-bound
// copy (WithTrace) stamps the X-Trace-* headers on every request so the
// gateway continues the caller's span tree.
type HTTPOwner struct {
	prefix string // "<base>/v1/parties/<party>/<field>"
	tfURL  string
	rtkURL string
	client *http.Client
	ctx    telemetry.SpanContext
}

// WithTrace implements traceCarrier.
func (h *HTTPOwner) WithTrace(ctx telemetry.SpanContext) core.OwnerAPI {
	cp := *h
	cp.ctx = ctx
	return &cp
}

// NewHTTPOwner builds an HTTP-backed owner view. base is the gateway
// root (e.g. "http://host:port"); client may be nil for
// http.DefaultClient.
func NewHTTPOwner(base, party string, field Field, client *http.Client) *HTTPOwner {
	if client == nil {
		client = http.DefaultClient
	}
	prefix := fmt.Sprintf("%s/v1/parties/%s/%s", strings.TrimRight(base, "/"), party, field)
	return &HTTPOwner{
		prefix: prefix,
		tfURL:  prefix + "/tf",
		rtkURL: prefix + "/rtk",
		client: client,
	}
}

// stamp tags a request with a fresh request ID and, when this owner is
// trace-bound, the trace-propagation headers.
func (h *HTTPOwner) stamp(req *http.Request) {
	req.Header.Set("X-Request-ID", telemetry.RequestID())
	if h.ctx.Valid() {
		req.Header.Set(headerTraceID, h.ctx.TraceID)
		req.Header.Set(headerTraceParent, h.ctx.SpanID)
	}
}

// closeBody drains a bounded remainder of a response body and closes
// it. net/http only returns a connection to its idle pool once the body
// has been read to EOF, and a JSON decoder stops at the end of the
// value — short of the trailing newline and the final chunk — so every
// client path closes through here.
func closeBody(resp *http.Response) {
	_, _ = io.CopyN(io.Discard, resp.Body, 64<<10)
	_ = resp.Body.Close()
}

// getJSON performs a GET (tagged with a fresh request ID) and decodes
// the response.
func (h *HTTPOwner) getJSON(url string, v any) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	h.stamp(req)
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return respError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// respError surfaces the JSON error envelope of a non-200 response.
func respError(resp *http.Response) error {
	var e httpError
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("federation: http %d: %s", resp.StatusCode, e.Error)
	}
	return fmt.Errorf("federation: http %d", resp.StatusCode)
}

// maxWireReply caps a wire reply the client will buffer (the codec's
// own payload limit).
const maxWireReply = 1 << 26

// postWire performs a POST with a wire-framed body and returns the
// wire-framed reply in a buffer the caller hands to putFrame once it is
// decoded. A 200 in any other media type is an error: a gateway
// that cannot answer in wire form cannot read the request either.
func (h *HTTPOwner) postWire(url string, body []byte) (*[]byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", WireContentType)
	req.Header.Set("Accept", WireContentType)
	h.stamp(req)
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, respError(resp)
	}
	if ct := resp.Header.Get("Content-Type"); !isWireContent(ct) {
		return nil, fmt.Errorf("federation: %s answered %q, want %s", url, ct, WireContentType)
	}
	if resp.ContentLength > maxWireReply {
		return nil, fmt.Errorf("federation: %s: reply of %d bytes exceeds the wire limit", url, resp.ContentLength)
	}
	// Sized from the declared length, so the frame lands in one piece; a
	// reply an intermediary re-chunked still reads, by growing.
	frame := frameBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*frame)[:0])
	buf.Grow(int(max(resp.ContentLength, 0)) + bytes.MinRead)
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxWireReply))
	*frame = buf.Bytes()
	if err != nil {
		putFrame(frame)
		return nil, fmt.Errorf("federation: %s: reading reply: %w", url, err)
	}
	return frame, nil
}

// DocIDs implements core.OwnerAPI.
func (h *HTTPOwner) DocIDs() []int {
	var out struct {
		IDs []int `json:"ids"`
	}
	if err := h.getJSON(h.prefix+"/docs", &out); err != nil {
		return nil
	}
	return out.IDs
}

// DocMeta implements core.OwnerAPI.
func (h *HTTPOwner) DocMeta(docID int) (int, int, error) {
	var out struct {
		Length int `json:"length"`
		Unique int `json:"unique"`
	}
	if err := h.getJSON(fmt.Sprintf("%s/docs/%d/meta", h.prefix, docID), &out); err != nil {
		return 0, 0, err
	}
	return out.Length, out.Unique, nil
}

// AnswerTF implements core.OwnerAPI.
func (h *HTTPOwner) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	frame, err := h.postWire(h.tfURL, encodeWireTFRequest(docID, q.Cols))
	if err != nil {
		return nil, err
	}
	defer putFrame(frame)
	return wire.DecodeTFResponse(*frame)
}

// AnswerRTK implements core.OwnerAPI.
func (h *HTTPOwner) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	var out [1]*core.RTKResponse
	err := h.answerRTK([]*core.TFQuery{q}, out[:])
	return out[0], err
}

// AnswerRTKBatch implements core.OwnerAPI: one POST carrying the
// queries' frames back to back, answered by as many reply frames.
func (h *HTTPOwner) AnswerRTKBatch(qs []*core.TFQuery) ([]*core.RTKResponse, error) {
	out := make([]*core.RTKResponse, len(qs))
	if err := h.answerRTK(qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (h *HTTPOwner) answerRTK(qs []*core.TFQuery, out []*core.RTKResponse) error {
	body := frameBufs.Get().(*[]byte)
	*body = wire.AppendTFQueries((*body)[:0], qs)
	frame, err := h.postWire(h.rtkURL, *body)
	if err != nil {
		return err // body is dropped, not recycled: net/http may still be sending it
	}
	putFrame(body) // the host read all of it before it answered
	defer putFrame(frame)
	return wire.DecodeRTKResponses(*frame, out)
}

// httpEndpoint adapts an HTTP-gateway party host to the server's
// endpoint registry, the remote transport next to in-process relay.
type httpEndpoint struct {
	base   string
	name   string
	client *http.Client
}

func (e *httpEndpoint) ownerAPI(f Field) (core.OwnerAPI, error) {
	if f < 0 || f >= numFields {
		return nil, fmt.Errorf("%w: %d", ErrUnknownField, int(f))
	}
	return NewHTTPOwner(e.base, e.name, f, e.client), nil
}

// transport implements endpoint.
func (e *httpEndpoint) transport() string { return transportHTTP }

// RegisterHTTPRemote connects the coordinator to a party served behind
// an HTTP gateway rooted at base and adds it to the roster under name.
// client may be nil for http.DefaultClient. Queries to the remote party
// are still traffic-accounted by this server, which relays them.
func (s *Server) RegisterHTTPRemote(name, base string, client *http.Client) error {
	if client == nil {
		client = http.DefaultClient
	}
	return s.register(name, &httpEndpoint{base: base, name: name, client: client})
}
