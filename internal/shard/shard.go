// Package shard is every party's storage engine: it partitions one
// party's corpus across N owner shards by doc-range and presents the
// result as a single logical owner.
//
// A group of one shard and one replica is exactly one core.Owner, and
// every call goes straight to it: no breaker, no scatter, no merge. Above
// 1 × 1 the scatter-gather layer reuses the deterministic slot-merge
// discipline of the federated fan-out: shard answers land in fixed
// shard-index slots and are merged in that order under the RTK-Sketch's
// strict total eviction order, so the merged response is bit-identical
// to the 1 × 1 group at Epsilon=0 regardless of shard count, goroutine
// interleaving, or which replica served each shard (see Group.AnswerRTK).
//
// Privacy: New decides where a party's noise is drawn. A 1 × 1 group's
// owner holds the mechanism and perturbs each answer itself. Above 1 × 1
// the shard owners run with DP disabled and never release anything
// outside the party — the release point is the Group facade, which draws
// exactly one noise sample per answered query after the merge, the same
// release schedule as a single Owner. The per-silo DP composition of the
// paper is therefore unchanged by sharding (the accountant still sees one
// logical party), matching the cross-silo analysis referenced in
// PAPERS.md.
//
// Each shard may carry multiple read replicas. Replicas hold identical
// state — ingestion writes through to every replica of the owning shard
// — so failing over from a dead replica to a peer can never change a
// query result. Replica failure detection generalizes the per-party
// circuit-breaker machinery: each (shard, replica) pair has its own
// breaker, a killed or faulting replica degrades to its peers, and only
// when every replica of a shard is unavailable does the query fail.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrBadConfig reports an invalid Config.
	ErrBadConfig = errors.New("shard: invalid configuration")
	// ErrReplicaDown is what a killed replica answers with; the caller
	// fails over to a peer replica.
	ErrReplicaDown = errors.New("shard: replica down")
	// ErrNoReplica reports that every replica of a shard was unavailable.
	ErrNoReplica = errors.New("shard: no replica available")
)

// DefaultBlockSize is the doc-range striping block: documents are
// assigned to shards in contiguous blocks of this many ids, so locality
// of sequential corpora is preserved while load still spreads.
const DefaultBlockSize = 64

// Config configures a sharded owner group.
type Config struct {
	// Params are the shared protocol parameters. Shards and Replicas are
	// read from here (both resolve 0 to 1).
	Params core.Params
	// Seed is the federation hash seed (all shards share the family).
	Seed uint64
	// Mech is the group's DP mechanism: the single release point for
	// every answer that leaves the group, held by a 1 × 1 group's owner
	// and by a larger group's facade. Nil means dp.Disabled().
	Mech dp.Mechanism
	// BlockSize is the doc-range striping block (0 = DefaultBlockSize).
	BlockSize int
	// Policy is the per-replica breaker/backoff policy (nil = defaults).
	Policy *resilience.Policy
}

// Hooks connects a Group to its host's telemetry: the flight recorder
// registry for failover attempt spans, plus bounded-label callbacks for
// per-shard outcome counters, breaker gauges, and transport bytes. All
// fields are optional. Callbacks receive labels from the bounded
// ShardLabel/ReplicaLabel tables, never raw identifiers.
type Hooks struct {
	// Registry, when set, records a "shard.attempt" child span under the
	// caller's trace context for every replica attempt.
	Registry *telemetry.Registry
	// OnOutcome is called once per shard-level call with the shard label
	// and whether any replica answered.
	OnOutcome func(shard string, ok bool)
	// BreakerChange is called on every replica breaker state change with
	// the combined "s<i>/r<j>" label.
	BreakerChange func(shard string, s resilience.State)
	// OnTransport is called with the fixed-width byte size of each
	// shard-level request/response exchange (api is "tf", "rtk",
	// "docids" or "docmeta").
	OnTransport func(api, shard string, bytes int64)
}

// replica is one copy of a shard's owner state plus its health machinery.
type replica struct {
	owner   *core.Owner
	breaker *resilience.Breaker
	killed  atomic.Bool
}

// shardState is one doc-range partition: its replica set and the
// round-robin read cursor.
type shardState struct {
	replicas []*replica
	rr       atomic.Uint64
}

// Group is a sharded, replicated owner facade implementing
// core.OwnerAPI. Safe for concurrent use.
type Group struct {
	// owner is a 1 × 1 group's one owner, which every method forwards to;
	// nil above 1 × 1, where the fields below serve.
	owner *core.Owner

	params    core.Params
	blockSize int
	absKeys   bool // Count sketch: heap eviction keys on |value|

	mech *lockedMech // the release point's mechanism, drawn by core

	shards []*shardState

	mu  sync.Mutex // guards ids and write paths
	ids map[int]struct{}

	hooks atomic.Pointer[Hooks]
}

// New builds an owner group: Params.Shards partitions (0 and 1 both mean
// one shard), each with Params.Replicas identical replicas (likewise).
func New(cfg Config) (*Group, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	nShards := cfg.Params.Shards
	if nShards <= 0 {
		nShards = 1
	}
	nReplicas := cfg.Params.Replicas
	if nReplicas <= 0 {
		nReplicas = 1
	}
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize < 0 {
		return nil, fmt.Errorf("%w: BlockSize=%d", ErrBadConfig, cfg.BlockSize)
	}
	mech := cfg.Mech
	if mech == nil {
		mech = dp.Disabled()
	}
	if nShards == 1 && nReplicas == 1 {
		// The one owner holds the mechanism and is the release point:
		// there is nothing to merge, so nothing to draw after.
		o, err := core.NewOwner(cfg.Params, cfg.Seed, mech)
		if err != nil {
			return nil, err
		}
		return &Group{owner: o}, nil
	}
	policy := resilience.DefaultPolicy()
	if cfg.Policy != nil {
		policy = *cfg.Policy
	}
	// Shard owners are internal partitions, not protocol endpoints: they
	// run noise-free (the facade is the release point) and do not
	// themselves shard further.
	ownerParams := cfg.Params
	ownerParams.Shards = 0
	ownerParams.Replicas = 0
	g := &Group{
		params:    cfg.Params,
		blockSize: blockSize,
		absKeys:   cfg.Params.AbsEvictionKeys(),
		mech:      &lockedMech{Mechanism: mech},
		ids:       make(map[int]struct{}),
	}
	for si := 0; si < nShards; si++ {
		s := &shardState{}
		for ri := 0; ri < nReplicas; ri++ {
			o, err := core.NewOwner(ownerParams, cfg.Seed, dp.Disabled())
			if err != nil {
				return nil, err
			}
			r := &replica{owner: o, breaker: resilience.NewBreaker(policy)}
			lbl := BreakerLabel(si, ri)
			r.breaker.OnChange(func(st resilience.State) {
				if h := g.hooks.Load(); h != nil && h.BreakerChange != nil {
					h.BreakerChange(lbl, st)
				}
			})
			s.replicas = append(s.replicas, r)
		}
		g.shards = append(g.shards, s)
	}
	return g, nil
}

// SetHooks installs (or replaces) the telemetry hooks and publishes the
// current breaker state of every replica through BreakerChange so
// gauges start from a defined value. A 1 × 1 group has no replica
// machinery, so it never calls a hook.
func (g *Group) SetHooks(h Hooks) {
	g.hooks.Store(&h)
	if h.BreakerChange == nil {
		return
	}
	for si, s := range g.shards {
		for ri, r := range s.replicas {
			h.BreakerChange(BreakerLabel(si, ri), r.breaker.State())
		}
	}
}

// Owner returns a 1 × 1 group's one owner, and nil above 1 × 1.
func (g *Group) Owner() *core.Owner { return g.owner }

// ShardFor maps a document id to its owning shard: contiguous blocks of
// BlockSize ids stripe round-robin across the shards. Blocks are floored,
// so negative ids stripe like the rest: ids -BlockSize..-1 are one block,
// on the shard before id 0's.
func (g *Group) ShardFor(docID int) int {
	n := len(g.shards)
	if n <= 1 {
		return 0
	}
	blk := docID / g.blockSize
	if docID%g.blockSize < 0 {
		blk--
	}
	s := blk % n
	if s < 0 {
		s += n
	}
	return s
}

// KillReplica marks one replica dead: every call to it fails with
// ErrReplicaDown until ReviveReplica. Reads degrade to the shard's peer
// replicas; with every replica of a shard killed, queries touching that
// shard fail with ErrNoReplica. A 1 × 1 group has no replica to kill.
func (g *Group) KillReplica(shard, rep int) {
	g.shards[shard].replicas[rep].killed.Store(true)
}

// ReviveReplica clears a kill. The replica's breaker recovers through
// its ordinary half-open probe cycle.
func (g *Group) ReviveReplica(shard, rep int) {
	g.shards[shard].replicas[rep].killed.Store(false)
}

// ReplicaState returns one replica's breaker state.
func (g *Group) ReplicaState(shard, rep int) resilience.State {
	return g.shards[shard].replicas[rep].breaker.State()
}

// Generations returns the per-shard ingest generation vector. Cache
// keys derived from it invalidate shard-locally: an ingest or removal
// moves only the owning shard's component.
func (g *Group) Generations() []uint64 {
	if g.owner != nil {
		return []uint64{g.owner.Generation()}
	}
	out := make([]uint64, len(g.shards))
	for i, s := range g.shards {
		out[i] = s.generation()
	}
	return out
}

// generation is the shard's ingest generation: that of the replica a
// write reaches last. A write goes through the replicas in order, so
// while it is under way the shard still reads as its old generation, and
// an answer taken from a replica the write has not reached is never
// filed under the new one — where it would outlive the write.
func (s *shardState) generation() uint64 {
	return s.replicas[len(s.replicas)-1].owner.Generation()
}

// Generation returns the sum of the per-shard generations — a scalar
// that moves on every mutation, for callers that only need "did
// anything change".
func (g *Group) Generation() uint64 {
	if g.owner != nil {
		return g.owner.Generation()
	}
	var sum uint64
	for _, s := range g.shards {
		sum += s.generation()
	}
	return sum
}

// AddDocument ingests one document into every replica of its owning
// shard, bumping only that shard's generation: AddDocuments of a batch of
// one.
func (g *Group) AddDocument(docID int, counts map[uint64]int64) error {
	return g.AddDocuments([]core.DocCounts{{DocID: docID, Counts: counts}})
}

// AddDocuments ingests a batch: documents are partitioned by owning
// shard, each partition is written through to every replica of its shard
// (core.Owner.AddDocuments), and the shards load concurrently. The batch
// is checked once, before any shard is written, by the owners' own check
// (core.CheckBatch) against the group's ids: a refused batch leaves every
// replica untouched — undoing an applied part could not bring back the
// entries it evicted — and one that passes passes at every replica. Each
// touched shard's generation moves by exactly one.
func (g *Group) AddDocuments(docs []core.DocCounts) error {
	if g.owner != nil {
		return g.owner.AddDocuments(docs)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	held := func(docID int) bool {
		_, ok := g.ids[docID]
		return ok
	}
	if err := core.CheckBatch(docs, held); err != nil {
		return err
	}
	parts := make([][]core.DocCounts, len(g.shards))
	for _, d := range docs {
		si := g.ShardFor(d.DocID)
		parts[si] = append(parts[si], d)
	}
	// The first shard the batch touches loads on the caller, every other
	// on its own goroutine.
	errs := make([]error, len(g.shards))
	first := -1
	var wg *sync.WaitGroup
	for si, part := range parts {
		switch {
		case len(part) == 0:
		case first < 0:
			first = si
		default:
			if wg == nil {
				wg = new(sync.WaitGroup)
			}
			wg.Add(1)
			go func(si int, wg *sync.WaitGroup) {
				defer wg.Done()
				errs[si] = g.shards[si].addDocuments(parts[si])
			}(si, wg)
		}
	}
	if first >= 0 {
		errs[first] = g.shards[first].addDocuments(parts[first])
	}
	if wg != nil {
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return err // a replica written to past the group holds ids it does not know
	}
	for _, d := range docs {
		g.ids[d.DocID] = struct{}{}
	}
	return nil
}

// addDocuments writes a batch through to every replica of the shard, in
// replica order, stopping at the first refusal.
func (s *shardState) addDocuments(docs []core.DocCounts) error {
	for _, r := range s.replicas {
		if err := r.owner.AddDocuments(docs); err != nil {
			return err
		}
	}
	return nil
}

// RemoveDocument deletes one document from every replica of its owning
// shard and bumps only that shard's generation — cache entries keyed by
// the other shards' generations stay valid (no cross-shard stampede).
func (g *Group) RemoveDocument(docID int) error {
	if g.owner != nil {
		return g.owner.RemoveDocument(docID)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.ids[docID]; !ok {
		return fmt.Errorf("%w: %d", core.ErrUnknownDoc, docID)
	}
	si := g.ShardFor(docID)
	for _, r := range g.shards[si].replicas {
		if err := r.owner.RemoveDocument(docID); err != nil {
			return err
		}
	}
	delete(g.ids, docID)
	return nil
}
