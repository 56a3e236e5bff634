package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

// Owner API label values (bounded; mirrors the federation transport
// labels so per-shard byte series line up with the party-level ones).
const (
	APIDocIDs  = "docids"
	APIDocMeta = "docmeta"
	APITF      = "tf"
	APIRTK     = "rtk"
)

// Group implements core.OwnerAPI. A 1 × 1 group forwards every call to
// its owner. Above 1 × 1 the exported methods run untraced; WithTrace
// returns a view that parents per-replica attempt spans under the
// caller's span (the federation server forwards its trace context here
// exactly as it does to the HTTP transport client).

// DocIDs returns the union of every shard's document ids, ascending —
// identical to a single owner over the whole corpus. Shards that have
// no live replica contribute nothing (the roster call has no error
// channel, matching core.OwnerAPI).
func (g *Group) DocIDs() []int {
	if g.owner != nil {
		return g.owner.DocIDs()
	}
	return g.docIDs(telemetry.SpanContext{})
}

// DocMeta routes by doc-range to the owning shard.
func (g *Group) DocMeta(docID int) (int, int, error) {
	if g.owner != nil {
		return g.owner.DocMeta(docID)
	}
	return g.docMeta(telemetry.SpanContext{}, docID)
}

// AnswerTF routes by doc-range to the owning shard and applies the
// facade's single noise draw — the DP release point of the group.
func (g *Group) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	if g.owner != nil {
		return g.owner.AnswerTF(docID, q)
	}
	return g.answerTF(telemetry.SpanContext{}, docID, q)
}

// AnswerRTK scatters the query to every shard, gathers the raw answers
// into fixed shard-index slots, merges them under the sketch's strict
// total eviction order, and perturbs the merged cells with the facade's
// single noise draw. At Epsilon=0 the response is bit-identical to a
// single Owner holding the whole corpus (see core.MergeRTKResponses).
func (g *Group) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	if g.owner != nil {
		return g.owner.AnswerRTK(q)
	}
	return g.answerRTK(telemetry.SpanContext{}, q)
}

// AnswerRTKBatch answers the queries with one scatter: every shard is
// asked once, for all of them, and the merges then run in query order
// with one facade draw each — the draws a single Owner makes.
func (g *Group) AnswerRTKBatch(qs []*core.TFQuery) ([]*core.RTKResponse, error) {
	if g.owner != nil {
		return g.owner.AnswerRTKBatch(qs)
	}
	return g.answerRTKBatch(telemetry.SpanContext{}, qs)
}

// WithTrace implements the federation's trace-carrier contract: the
// returned view parents every replica attempt span under ctx. A 1 × 1
// group has no attempts to trace and returns its owner.
func (g *Group) WithTrace(ctx telemetry.SpanContext) core.OwnerAPI {
	if g.owner != nil {
		return g.owner
	}
	if !ctx.Valid() {
		return g
	}
	return &tracedGroup{g: g, ctx: ctx}
}

// tracedGroup binds a Group to a caller's span context.
type tracedGroup struct {
	g   *Group
	ctx telemetry.SpanContext
}

func (t *tracedGroup) DocIDs() []int { return t.g.docIDs(t.ctx) }
func (t *tracedGroup) DocMeta(docID int) (int, int, error) {
	return t.g.docMeta(t.ctx, docID)
}
func (t *tracedGroup) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	return t.g.answerTF(t.ctx, docID, q)
}
func (t *tracedGroup) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	return t.g.answerRTK(t.ctx, q)
}
func (t *tracedGroup) AnswerRTKBatch(qs []*core.TFQuery) ([]*core.RTKResponse, error) {
	return t.g.answerRTKBatch(t.ctx, qs)
}

// lockedMech is the mechanism the facade hands to core's release
// functions. Its draws are serialized: the random source is not
// thread-safe, and the facade's releases run concurrently.
type lockedMech struct {
	mu sync.Mutex
	dp.Mechanism
}

// Sample implements dp.Mechanism.
func (m *lockedMech) Sample() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Mechanism.Sample()
}

// permanentErr reports protocol-level negative answers that must be
// returned to the caller as-is: the replica answered correctly, there
// is nothing to fail over from.
func permanentErr(err error) bool {
	return errors.Is(err, core.ErrBadQuery) ||
		errors.Is(err, core.ErrUnknownDoc) ||
		errors.Is(err, core.ErrNoSketches) ||
		errors.Is(err, core.ErrBadParams)
}

// callShard runs fn against one replica of shard si, failing over
// through the shard's replica set in rotation order. A replica is
// skipped while its breaker is open; a killed or faulting replica
// records a breaker failure and the call degrades to the next peer.
// Because replicas hold identical state, which replica answers can
// never change the result. Every attempt is recorded as a
// "shard.attempt" child span when tracing hooks are installed.
func (g *Group) callShard(ctx telemetry.SpanContext, si int, api string, fn func(o *core.Owner) error) error {
	s := g.shards[si]
	n := len(s.replicas)
	start := int(s.rr.Add(1)-1) % n
	h := g.hooks.Load()
	var lastErr error = ErrNoReplica
	for k := 0; k < n; k++ {
		ri := (start + k) % n
		r := s.replicas[ri]
		if !r.breaker.Allow() {
			lastErr = resilience.ErrBreakerOpen
			continue
		}
		sp := g.attemptSpan(h, ctx, api, si, ri)
		err := ErrReplicaDown // the kill switch fails the attempt before the owner is touched
		if !r.killed.Load() {
			err = fn(r.owner)
		}
		if err == nil || permanentErr(err) {
			// Answered (a protocol-level negative answer is an answer).
			r.breaker.Record(true)
			endAttempt(&sp, "ok")
			g.recordOutcome(h, si, true)
			return err
		}
		r.breaker.Record(false)
		endAttempt(&sp, "failed")
		lastErr = err
	}
	g.recordOutcome(h, si, false)
	return fmt.Errorf("shard: shard %s: %w (last: %v)", ShardLabel(si), ErrNoReplica, lastErr)
}

// attemptSpan starts one replica attempt span; without hooks or a valid
// parent it is the zero Span, which records nothing — span recording is
// strictly opt-in.
func (g *Group) attemptSpan(h *Hooks, ctx telemetry.SpanContext, api string, si, ri int) telemetry.Span {
	if h == nil || h.Registry == nil || !ctx.Valid() {
		return telemetry.Span{}
	}
	sp := h.Registry.StartChildSpan("shard.attempt", ctx, nil)
	sp.AddAttr(telemetry.AStr("api", api),
		telemetry.AStr("shard", ShardLabel(si)),
		telemetry.AStr("replica", ReplicaLabel(ri)))
	return sp
}

// endAttempt closes an attempt span with its outcome.
func endAttempt(sp *telemetry.Span, outcome string) {
	sp.AddAttr(telemetry.AStr("outcome", outcome))
	sp.End()
}

// recordOutcome feeds the per-shard outcome hook.
func (g *Group) recordOutcome(h *Hooks, si int, ok bool) {
	if h != nil && h.OnOutcome != nil {
		h.OnOutcome(ShardLabel(si), ok)
	}
}

// recordTransport feeds the per-shard byte hook with the fixed-width
// size of one request/response exchange.
func (g *Group) recordTransport(api string, si int, bytes int64) {
	if h := g.hooks.Load(); h != nil && h.OnTransport != nil {
		h.OnTransport(api, ShardLabel(si), bytes)
	}
}

func (g *Group) docIDs(ctx telemetry.SpanContext) []int {
	var out []int
	for si := range g.shards {
		var ids []int
		err := g.callShard(ctx, si, APIDocIDs, func(o *core.Owner) error {
			ids = o.DocIDs()
			return nil
		})
		if err != nil {
			continue
		}
		g.recordTransport(APIDocIDs, si, int64(8*len(ids)))
		out = append(out, ids...)
	}
	sort.Ints(out)
	return out
}

func (g *Group) docMeta(ctx telemetry.SpanContext, docID int) (int, int, error) {
	var length, unique int
	si := g.ShardFor(docID)
	err := g.callShard(ctx, si, APIDocMeta, func(o *core.Owner) error {
		var err error
		length, unique, err = o.DocMeta(docID)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	g.recordTransport(APIDocMeta, si, 16)
	return length, unique, nil
}

func (g *Group) answerTF(ctx telemetry.SpanContext, docID int, q *core.TFQuery) (*core.TFResponse, error) {
	var resp *core.TFResponse
	si := g.ShardFor(docID)
	err := g.callShard(ctx, si, APITF, func(o *core.Owner) error {
		var err error
		resp, err = o.AnswerTF(docID, q)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The shard owner answered raw (its mechanism is disabled); the
	// facade is the release point, with the owner's release function.
	core.PerturbTF(resp, g.mech)
	g.recordTransport(APITF, si, q.WireSize()+resp.WireSize())
	return resp, nil
}

func (g *Group) answerRTK(ctx telemetry.SpanContext, q *core.TFQuery) (*core.RTKResponse, error) {
	var out [1]*core.RTKResponse
	err := g.answerRTKs(ctx, []*core.TFQuery{q}, out[:])
	return out[0], err
}

func (g *Group) answerRTKBatch(ctx telemetry.SpanContext, qs []*core.TFQuery) ([]*core.RTKResponse, error) {
	out := make([]*core.RTKResponse, len(qs))
	if err := g.answerRTKs(ctx, qs, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (g *Group) answerRTKs(ctx telemetry.SpanContext, qs []*core.TFQuery, out []*core.RTKResponse) error {
	if err := core.CheckRTKBatch(qs, g.params.Z, g.params.W); err != nil {
		return err
	}

	// Scatter: every shard answers all the queries raw, on one replica,
	// into its fixed run of slots, concurrently — shard 0 on the caller.
	// Slots keep the merge order independent of completion order — the
	// same slot-merge discipline as the federated search fan-out.
	k, n := len(qs), len(g.shards)
	raw := make([]*core.RTKResponse, n*k) // shard si's answer to qs[i] at si*k+i
	errs := make([]error, n)
	if n == 1 {
		errs[0] = g.shardRTK(ctx, 0, qs, raw)
	} else {
		var wg sync.WaitGroup
		for si := 1; si < n; si++ {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				errs[si] = g.shardRTK(ctx, si, qs, raw[si*k:(si+1)*k])
			}(si)
		}
		errs[0] = g.shardRTK(ctx, 0, qs, raw[:k])
		wg.Wait()
	}
	// The raw answers are made for this call, and a merge copies what it
	// keeps: each is released once its merge is done, or here if a shard
	// failed and there is none.
	for _, err := range errs {
		if err != nil {
			for _, r := range raw {
				r.Release()
			}
			return err
		}
	}

	// Gather: per query, merge each row's shard cells under the sketch's
	// strict total eviction order, then release with one facade noise
	// draw — in query order, the draws a single owner makes.
	cells := make([]*core.RTKResponse, n)
	for i := range qs {
		for si := range cells {
			cells[si] = raw[si*k+i]
		}
		out[i] = core.MergeRTKResponses(cells, g.params.HeapCap(), g.absKeys, g.mech)
		for _, r := range cells {
			r.Release()
		}
	}
	return nil
}

// shardRTK puts shard si's raw (pre-noise) answers to qs into out: one
// exchange with one replica. The answers never leave the facade
// unperturbed.
func (g *Group) shardRTK(ctx telemetry.SpanContext, si int, qs []*core.TFQuery, out []*core.RTKResponse) error {
	err := g.callShard(ctx, si, APIRTK, func(o *core.Owner) error {
		return core.AnswerRTKs(o, qs, out)
	})
	if err != nil {
		return err
	}
	var bytes int64
	for i, q := range qs {
		bytes += q.WireSize() + out[i].WireSize()
	}
	g.recordTransport(APIRTK, si, bytes)
	return nil
}
