package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"csfltr/internal/core"
	"csfltr/internal/qcache"
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

// Cache key kinds for the shard-local raw answer cache.
const keyKindShardRTK uint64 = 1

// Group implements core.OwnerAPI. The exported methods run untraced;
// WithTrace returns a view that parents per-replica attempt spans under
// the caller's span (the federation server forwards its trace context
// here exactly as it does to the HTTP transport client).

// DocIDs returns the union of every shard's document ids, ascending —
// identical to a single owner over the whole corpus. Shards that have
// no live replica contribute nothing (the roster call has no error
// channel, matching core.OwnerAPI).
func (g *Group) DocIDs() []int { return g.docIDs(telemetry.SpanContext{}) }

// DocMeta routes by doc-range to the owning shard.
func (g *Group) DocMeta(docID int) (int, int, error) {
	return g.docMeta(telemetry.SpanContext{}, docID)
}

// AnswerTF routes by doc-range to the owning shard and applies the
// facade's single noise draw — the DP release point of the group.
func (g *Group) AnswerTF(docID int, q *core.TFQuery) (*core.TFResponse, error) {
	return g.answerTF(telemetry.SpanContext{}, docID, q)
}

// AnswerRTK scatters the query to every shard, gathers the raw answers
// into fixed shard-index slots, merges them under the sketch's strict
// total eviction order, and perturbs the merged cells with the facade's
// single noise draw. At Epsilon=0 the response is bit-identical to a
// single Owner holding the whole corpus (see core.MergeRTKResponses).
func (g *Group) AnswerRTK(q *core.TFQuery) (*core.RTKResponse, error) {
	return g.answerRTK(telemetry.SpanContext{}, q)
}

// WithTrace implements the federation's trace-carrier contract: the
// returned view parents every replica attempt span under ctx.
func (g *Group) WithTrace(ctx telemetry.SpanContext) core.OwnerAPI {
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

// sample serializes the facade's noise draws (the mechanism's random
// source is not thread-safe, same contract as core.Owner's mutex).
func (g *Group) sample() float64 {
	g.mechMu.Lock()
	defer g.mechMu.Unlock()
	return g.mech.Sample()
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
			endAttempt(sp, "ok")
			g.recordOutcome(h, si, true)
			return err
		}
		r.breaker.Record(false)
		endAttempt(sp, "failed")
		lastErr = err
	}
	g.recordOutcome(h, si, false)
	return fmt.Errorf("shard: shard %s: %w (last: %v)", ShardLabel(si), ErrNoReplica, lastErr)
}

// attemptSpan starts one replica attempt span (nil without hooks or a
// valid parent — span recording is strictly opt-in).
func (g *Group) attemptSpan(h *Hooks, ctx telemetry.SpanContext, api string, si, ri int) *telemetry.TraceSpan {
	if h == nil || h.Registry == nil || !ctx.Valid() {
		return nil
	}
	return h.Registry.StartChildSpan("shard.attempt", ctx, nil,
		telemetry.AStr("api", api),
		telemetry.AStr("shard", ShardLabel(si)),
		telemetry.AStr("replica", ReplicaLabel(ri)))
}

// endAttempt closes an attempt span with its outcome.
func endAttempt(sp *telemetry.TraceSpan, outcome string) {
	if sp == nil {
		return
	}
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
	// facade is the release point: one draw perturbs all z values,
	// exactly the schedule of Algorithm 2 on a single owner.
	noise := g.sample()
	for i := range resp.Values {
		resp.Values[i] += noise
	}
	g.recordTransport(APITF, si, q.WireSize()+resp.WireSize())
	return resp, nil
}

func (g *Group) answerRTK(ctx telemetry.SpanContext, q *core.TFQuery) (*core.RTKResponse, error) {
	z, w := g.params.Z, g.params.W
	if q == nil || len(q.Cols) != z {
		n := 0
		if q != nil {
			n = len(q.Cols)
		}
		return nil, fmt.Errorf("%w: query has %d columns, want %d", core.ErrBadQuery, n, z)
	}
	for _, c := range q.Cols {
		if c >= uint32(w) {
			return nil, fmt.Errorf("%w: column %d out of range", core.ErrBadQuery, c)
		}
	}

	// Scatter: every shard answers raw into its fixed slot, concurrently.
	// Slots keep the merge order independent of completion order — the
	// same slot-merge discipline as the federated search fan-out.
	raw := make([]*core.RTKResponse, len(g.shards))
	if g.cache == nil {
		// The raw answers are made for this call, and the merge copies
		// what it keeps. With the cache on they are the cache's, and every
		// later hit's, from the moment they are stored: those never end.
		defer func() {
			for _, r := range raw {
				r.Release()
			}
		}()
	}
	errs := make([]error, len(g.shards))
	gens := g.Generations()
	if len(g.shards) == 1 {
		raw[0], errs[0] = g.shardRTK(ctx, 0, gens[0], q)
	} else {
		var wg sync.WaitGroup
		for si := range g.shards {
			wg.Add(1)
			go func(si int) {
				defer wg.Done()
				raw[si], errs[si] = g.shardRTK(ctx, si, gens[si], q)
			}(si)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Gather: merge each row's shard cells under the sketch's strict
	// total eviction order, then release with one facade noise draw.
	return core.MergeRTKResponses(raw, g.params.HeapCap(), g.absKeys, g.sample()), nil
}

// shardRTK answers one shard's slice of the scatter, through the
// shard-local raw answer cache when enabled. Cache keys bind the
// owning shard's generation, so an ingest or removal invalidates
// exactly that shard's entries. Cached values are raw (pre-noise) and
// never leave the facade unperturbed; a cached reply is shared by every
// later hit, so no one may Release it.
func (g *Group) shardRTK(ctx telemetry.SpanContext, si int, gen uint64, q *core.TFQuery) (*core.RTKResponse, error) {
	var full, base qcache.Key
	if g.cache != nil {
		full, base = g.rtkKeys(si, gen, q)
		if v, ok := g.cache.Get(full, base); ok {
			resp := v.(*core.RTKResponse)
			g.recordTransport(APIRTK, si, q.WireSize()+resp.WireSize())
			return resp, nil
		}
	}
	var resp *core.RTKResponse
	err := g.callShard(ctx, si, APIRTK, func(o *core.Owner) error {
		var err error
		resp, err = o.AnswerRTK(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	g.recordTransport(APIRTK, si, q.WireSize()+resp.WireSize())
	if g.cache != nil {
		g.cache.Put(full, base, resp.WireSize()+rtkCacheOverhead, resp)
	}
	return resp, nil
}

// rtkCacheOverhead approximates the per-entry bookkeeping beyond the
// wire payload when charging the cache.
const rtkCacheOverhead = 256

// rtkKeys derives the (full, base) cache keys of one shard's raw RTK
// answer: the full key binds the shard's generation, the base key is
// generation-free (the cache uses it for age tracking).
func (g *Group) rtkKeys(si int, gen uint64, q *core.TFQuery) (full, base qcache.Key) {
	fb := g.keyer.Begin(keyKindShardRTK).Int(si).Int(len(q.Cols))
	bb := g.keyer.Begin(keyKindShardRTK).Int(si).Int(len(q.Cols))
	for _, c := range q.Cols {
		fb.U64(uint64(c))
		bb.U64(uint64(c))
	}
	fb.U64(gen)
	return fb.Key(), bb.Key()
}
