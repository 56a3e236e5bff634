package federation

import (
	"fmt"
	"net"
	"net/rpc"
	"sync"

	"csfltr/internal/core"
	"csfltr/internal/telemetry"
	"csfltr/internal/wire"
)

// serviceName is the net/rpc service under which the federation server is
// exported.
const serviceName = "CSFLTR"

// RPC argument/reply types. All fields are exported for encoding/gob.

// traceMeta is the trace context embedded in every RPC argument struct.
// Empty fields mean "untraced". Gob tolerates both directions of version
// skew: old decoders ignore unknown fields, missing fields decode to
// zero values — so tracing-aware and tracing-unaware peers interoperate.
type traceMeta struct {
	TraceID    string
	ParentSpan string
	RequestID  string
}

// context converts the wire fields back into a span context.
func (t traceMeta) context() telemetry.SpanContext {
	return telemetry.SpanContext{TraceID: t.TraceID, SpanID: t.ParentSpan}
}

// metaFor builds the wire fields from a caller's span context.
func metaFor(ctx telemetry.SpanContext) traceMeta {
	return traceMeta{TraceID: ctx.TraceID, ParentSpan: ctx.SpanID}
}

// DocIDsArgs requests the document id roster of one party field.
type DocIDsArgs struct {
	Party string
	Field Field
	Trace traceMeta
}

// DocIDsReply carries the roster.
type DocIDsReply struct{ IDs []int }

// DocMetaArgs requests non-private document metadata.
type DocMetaArgs struct {
	Party string
	Field Field
	DocID int
	Trace traceMeta
}

// DocMetaReply carries document length metadata.
type DocMetaReply struct{ Length, Unique int }

// TFArgs carries a cross-party TF query (Algorithm 1's obfuscated hash
// vector) addressed to one document.
type TFArgs struct {
	Party string
	Field Field
	DocID int
	Query core.TFQuery
	Trace traceMeta
}

// TFReply carries the perturbed owner response (Algorithm 2).
type TFReply struct{ Resp core.TFResponse }

// RTKArgs carries a reverse top-K query.
type RTKArgs struct {
	Party string
	Field Field
	Query core.TFQuery
	Trace traceMeta
}

// RTKReply carries the RTK-Sketch cells.
type RTKReply struct{ Resp core.RTKResponse }

// The four structs that dominate RPC traffic implement
// gob.GobEncoder/GobDecoder over internal/wire, so net/rpc ships the
// compact framed form (an RTK reply bit-packed in a stored version 2
// frame; queries and TF values as varints in version 1) instead of
// gob's reflected struct encoding. The frame's version byte, not gob's
// type system, now governs evolution of these payloads: changing a
// layout means a new version, and both directions reject frames they do
// not understand instead of silently misreading them. The small roster
// and metadata messages stay on plain gob.

// GobEncode implements gob.GobEncoder.
func (a *TFArgs) GobEncode() ([]byte, error) {
	payload := appendString(nil, a.Party)
	payload = wire.AppendVarint(payload, int64(a.Field))
	payload = wire.AppendVarint(payload, int64(a.DocID))
	payload = appendCols(payload, a.Query.Cols)
	payload = appendTrace(payload, a.Trace)
	return wire.Pack(nil, payload), nil
}

// GobDecode implements gob.GobDecoder.
func (a *TFArgs) GobDecode(data []byte) error {
	payload, err := wire.Unpack(data)
	if err != nil {
		return err
	}
	if a.Party, payload, err = decodeString(payload); err != nil {
		return err
	}
	var v int64
	if v, payload, err = wire.Varint(payload); err != nil {
		return err
	}
	a.Field = Field(v)
	if v, payload, err = wire.Varint(payload); err != nil {
		return err
	}
	a.DocID = int(v)
	if a.Query.Cols, payload, err = decodeCols(payload); err != nil {
		return err
	}
	if a.Trace, payload, err = decodeTrace(payload); err != nil {
		return err
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: trailing bytes", wire.ErrMalformed)
	}
	return nil
}

// GobEncode implements gob.GobEncoder.
func (a *RTKArgs) GobEncode() ([]byte, error) {
	payload := appendString(nil, a.Party)
	payload = wire.AppendVarint(payload, int64(a.Field))
	payload = appendCols(payload, a.Query.Cols)
	payload = appendTrace(payload, a.Trace)
	return wire.Pack(nil, payload), nil
}

// GobDecode implements gob.GobDecoder.
func (a *RTKArgs) GobDecode(data []byte) error {
	payload, err := wire.Unpack(data)
	if err != nil {
		return err
	}
	if a.Party, payload, err = decodeString(payload); err != nil {
		return err
	}
	var v int64
	if v, payload, err = wire.Varint(payload); err != nil {
		return err
	}
	a.Field = Field(v)
	if a.Query.Cols, payload, err = decodeCols(payload); err != nil {
		return err
	}
	if a.Trace, payload, err = decodeTrace(payload); err != nil {
		return err
	}
	if len(payload) != 0 {
		return fmt.Errorf("%w: trailing bytes", wire.ErrMalformed)
	}
	return nil
}

// GobEncode implements gob.GobEncoder.
func (r *TFReply) GobEncode() ([]byte, error) {
	return wire.AppendTFResponse(nil, &r.Resp), nil
}

// GobDecode implements gob.GobDecoder.
func (r *TFReply) GobDecode(data []byte) error {
	resp, err := wire.DecodeTFResponse(data)
	if err != nil {
		return err
	}
	r.Resp = *resp
	return nil
}

// GobEncode implements gob.GobEncoder.
func (r *RTKReply) GobEncode() ([]byte, error) {
	return wire.AppendRTKResponse(nil, &r.Resp), nil
}

// GobDecode implements gob.GobDecoder.
func (r *RTKReply) GobDecode(data []byte) error {
	resp, err := wire.DecodeRTKResponse(data)
	if err != nil {
		return err
	}
	r.Resp = *resp // the copy is the reply from here on; the decoded header is dropped
	return nil
}

// RPCService exposes a Server over net/rpc; each method resolves the
// target party and delegates to the same routed owners the in-process
// transport uses, so traffic accounting is shared.
type RPCService struct{ server *Server }

// instrument starts the per-method RPC telemetry (in-flight gauge,
// latency span — parented under the caller's propagated trace context
// when present and tracing is on) and returns the server-side span
// context plus the completion hook to defer: it records the request into
// the per-method request and error counters.
func (s *RPCService) instrument(method string, meta traceMeta, errp *error) (telemetry.SpanContext, func()) {
	m := s.server.metrics()
	m.rpcInFlight.Inc()
	sp := m.reg.StartChildSpan("rpc."+method, meta.context(), m.reg.Histogram(
		"csfltr_rpc_request_duration_seconds", "net/rpc request latency.", nil,
		telemetry.L("method", method)))
	if sp.Context().Valid() {
		sp.AddAttr(telemetry.AStr("transport", transportRPC))
		sp.SetRequestID(meta.RequestID)
	}
	return sp.Context(), func() {
		sp.End()
		m.rpcInFlight.Dec()
		m.reg.Counter("csfltr_rpc_requests_total", "net/rpc requests served.",
			telemetry.L("method", method)).Inc()
		if *errp != nil {
			m.reg.Counter("csfltr_rpc_errors_total", "net/rpc requests that returned an error.",
				telemetry.L("method", method)).Inc()
		}
	}
}

// traceOwner re-parents a resolved owner under the request's span
// context when the request carried one.
func traceOwner(owner core.OwnerAPI, ctx telemetry.SpanContext) core.OwnerAPI {
	if !ctx.Valid() {
		return owner
	}
	if tc, ok := owner.(traceCarrier); ok {
		return tc.WithTrace(ctx)
	}
	return owner
}

// DocIDs serves the roster of a party field.
func (s *RPCService) DocIDs(args *DocIDsArgs, reply *DocIDsReply) (err error) {
	ctx, done := s.instrument("DocIDs", args.Trace, &err)
	defer done()
	owner, err := s.server.OwnerFor(args.Party, args.Field)
	if err != nil {
		return err
	}
	reply.IDs = traceOwner(owner, ctx).DocIDs()
	return nil
}

// DocMeta serves non-private document metadata.
func (s *RPCService) DocMeta(args *DocMetaArgs, reply *DocMetaReply) (err error) {
	ctx, done := s.instrument("DocMeta", args.Trace, &err)
	defer done()
	owner, err := s.server.OwnerFor(args.Party, args.Field)
	if err != nil {
		return err
	}
	length, unique, err := traceOwner(owner, ctx).DocMeta(args.DocID)
	if err != nil {
		return err
	}
	reply.Length, reply.Unique = length, unique
	return nil
}

// AnswerTF relays a TF query to the owning party.
func (s *RPCService) AnswerTF(args *TFArgs, reply *TFReply) (err error) {
	ctx, done := s.instrument("AnswerTF", args.Trace, &err)
	defer done()
	owner, err := s.server.OwnerFor(args.Party, args.Field)
	if err != nil {
		return err
	}
	resp, err := traceOwner(owner, ctx).AnswerTF(args.DocID, &args.Query)
	if err != nil {
		return err
	}
	reply.Resp = *resp
	return nil
}

// AnswerRTK relays a reverse top-K query to the owning party.
func (s *RPCService) AnswerRTK(args *RTKArgs, reply *RTKReply) (err error) {
	ctx, done := s.instrument("AnswerRTK", args.Trace, &err)
	defer done()
	owner, err := s.server.OwnerFor(args.Party, args.Field)
	if err != nil {
		return err
	}
	resp, err := traceOwner(owner, ctx).AnswerRTK(&args.Query)
	if err != nil {
		return err
	}
	// net/rpc encodes the reply after this method has returned, so there
	// is no point here at which the service is done with it: it is not
	// released, and is collected once sent.
	reply.Resp = *resp
	return nil
}

// RPCServer runs a federation server on a TCP listener.
type RPCServer struct {
	Addr string // actual listen address (host:port)

	ln   net.Listener
	wg   sync.WaitGroup
	once sync.Once
}

// ListenAndServe exports srv over net/rpc on addr (e.g. "127.0.0.1:0" for
// an ephemeral port) and serves connections until Close is called.
func ListenAndServe(srv *Server, addr string) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: listen %s: %w", addr, err)
	}
	rs := rpc.NewServer()
	if err := rs.RegisterName(serviceName, &RPCService{server: srv}); err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("federation: register rpc service: %w", err)
	}
	out := &RPCServer{Addr: ln.Addr().String(), ln: ln}
	out.wg.Add(1)
	go func() {
		defer out.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			out.wg.Add(1)
			go func() {
				defer out.wg.Done()
				rs.ServeConn(conn)
			}()
		}
	}()
	return out, nil
}

// Close stops accepting connections and waits for in-flight ones.
func (s *RPCServer) Close() error {
	var err error
	s.once.Do(func() {
		err = s.ln.Close()
	})
	return err
}

// Client is a connection to a remote federation server.
type Client struct{ rpc *rpc.Client }

// Dial connects to a federation RPC server.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("federation: dial %s: %w", addr, err)
	}
	return &Client{rpc: c}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// OwnerFor returns an OwnerAPI view of a remote party's field. Transport
// errors from the roster call surface as an empty roster; query methods
// return errors normally.
func (c *Client) OwnerFor(party string, field Field) core.OwnerAPI {
	return &remoteOwner{client: c.rpc, party: party, field: field}
}

// ServeParty hosts a single party in its own process: a private
// coordinator containing only this party, exported over TCP. This is the
// fully distributed deployment mode — each silo keeps its sketches on
// its own machines and the central coordinator merely relays (see
// Server.RegisterRemote).
func ServeParty(p *Party, addr string) (*RPCServer, error) {
	s := NewServer()
	if err := s.Register(p); err != nil {
		return nil, err
	}
	return ListenAndServe(s, addr)
}

// remoteEndpoint adapts a dialled party host to the server's endpoint
// registry.
type remoteEndpoint struct {
	client *Client
	name   string
}

func (r *remoteEndpoint) ownerAPI(f Field) (core.OwnerAPI, error) {
	if f < 0 || f >= numFields {
		return nil, fmt.Errorf("%w: %d", ErrUnknownField, int(f))
	}
	return r.client.OwnerFor(r.name, f), nil
}

// transport implements endpoint.
func (r *remoteEndpoint) transport() string { return transportRPC }

// RegisterRemote connects the coordinator to a party-hosted endpoint
// (see ServeParty) and adds it to the roster under name. The returned
// client should be closed when the party is unregistered. Queries to
// the remote party are still traffic-accounted by this server, which
// relays them.
func (s *Server) RegisterRemote(name, addr string) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := s.register(name, &remoteEndpoint{client: c, name: name}); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// remoteOwner implements core.OwnerAPI over net/rpc. A trace-bound copy
// (WithTrace) stamps its span context into every argument struct so the
// party host can continue the tree.
type remoteOwner struct {
	client *rpc.Client
	party  string
	field  Field
	ctx    telemetry.SpanContext
}

// WithTrace implements traceCarrier.
func (r *remoteOwner) WithTrace(ctx telemetry.SpanContext) core.OwnerAPI {
	cp := *r
	cp.ctx = ctx
	return &cp
}

func (r *remoteOwner) DocIDs() []int {
	var reply DocIDsReply
	args := &DocIDsArgs{Party: r.party, Field: r.field, Trace: metaFor(r.ctx)}
	if err := r.client.Call(serviceName+".DocIDs", args, &reply); err != nil {
		return nil
	}
	return reply.IDs
}

func (r *remoteOwner) DocMeta(docID int) (int, int, error) {
	var reply DocMetaReply
	err := r.client.Call(serviceName+".DocMeta",
		&DocMetaArgs{Party: r.party, Field: r.field, DocID: docID, Trace: metaFor(r.ctx)}, &reply)
	if err != nil {
		return 0, 0, err
	}
	return reply.Length, reply.Unique, nil
}

func (r *remoteOwner) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	var reply TFReply
	err := r.client.Call(serviceName+".AnswerTF",
		&TFArgs{Party: r.party, Field: r.field, DocID: docID, Query: *q, Trace: metaFor(r.ctx)}, &reply)
	if err != nil {
		return nil, err
	}
	return &reply.Resp, nil
}

func (r *remoteOwner) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	var reply RTKReply
	err := r.client.Call(serviceName+".AnswerRTK",
		&RTKArgs{Party: r.party, Field: r.field, Query: *q, Trace: metaFor(r.ctx)}, &reply)
	if err != nil {
		return nil, err
	}
	return &reply.Resp, nil
}
