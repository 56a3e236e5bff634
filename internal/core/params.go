// Package core implements the primary contributions of the CS-F-LTR
// paper:
//
//   - the privacy-preserving cross-party term-frequency query scheme of
//     Section IV (Algorithms 1 and 2): sketch construction, hashing with
//     obfuscation via a private index set, and Laplace result
//     perturbation;
//   - the NAIVE reverse top-K document query of Section V-A
//     (Algorithm 3);
//   - the reverse top-K sketch (RTK-Sketch) of Section V-B
//     (Algorithms 4 and 5) with Update/Delete/Query and the
//     soft-intersection candidate filter.
//
// The package is transport-agnostic: queriers talk to document owners
// through the OwnerAPI interface, implemented in-process by Owner here and
// remotely by package federation. All message types are plain structs so
// they can be serialized by any transport; every response carries enough
// information for byte-level communication accounting (the paper's
// communication-cost axis).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

// Errors returned by this package.
var (
	ErrBadParams  = errors.New("core: invalid protocol parameters")
	ErrUnknownDoc = errors.New("core: unknown document")
	ErrNoSketches = errors.New("core: owner does not retain per-document sketches")
	ErrBadQuery   = errors.New("core: malformed query")
)

// EstimatorMode selects how RTK candidates' counts are estimated from
// the heap observations.
type EstimatorMode int

const (
	// EstimatorZeroFill (default) takes the median over ALL private
	// rows, treating rows where the document was evicted from the heap
	// as zeros. Eviction means the value fell below the heap floor, so
	// zero is the best available lower surrogate; this removes the
	// selection bias of scoring a document only on the rows where
	// collision noise inflated it, and in our experiments keeps the
	// cover rate near 1 across the whole Fig. 4 parameter range.
	EstimatorZeroFill EstimatorMode = iota
	// EstimatorPresentRows is the literal reading of Algorithm 5: the
	// median over only the rows where the document appears in the heap.
	// Kept for ablation; it reproduces the cover-rate sensitivity to
	// alpha/beta that the paper's Fig. 4 reports.
	EstimatorPresentRows
)

// Params are the protocol parameters shared by every member of a
// federation. The defaults mirror the paper's experimental setting
// (Section VI-A): alpha=5, beta=0.1, w=200, z=30, K=150, epsilon=0.5.
type Params struct {
	SketchKind sketch.Kind   // Count (default) or CountMin
	HashKind   hashutil.Kind // polynomial (default) or MD5 as in the paper
	Z          int           // sketch rows (z)
	W          int           // sketch columns (w)
	Z1         int           // real hashes per query; the rest are decoys
	Epsilon    float64       // DP budget per TF query; 0 disables DP
	Alpha      int           // RTK heap capacity multiplier (alpha)
	Beta       float64       // RTK soft-intersection fraction (beta)
	K          int           // reverse top-K result size (K)
	Estimator  EstimatorMode // RTK candidate count estimation strategy
	// Parallelism bounds the worker pool used by the parallel federation
	// operations (federated search fan-out, bulk ingestion's term
	// counting). 0 — the default — resolves to runtime.GOMAXPROCS(0); 1
	// reproduces the sequential path exactly. It is a runtime knob, not a protocol
	// parameter: it is not persisted with owner snapshots and does not
	// affect protocol messages or cost accounting.
	Parallelism int
	// MinParties enables degraded-mode federated search: when > 0, a
	// party whose circuit breaker is open is skipped (spending none of
	// its privacy budget) and a party that fails mid-search is dropped
	// from the merge; the search succeeds with a Partial result as long
	// as at least MinParties data parties answered, and fails with a
	// quorum error below that. 0 — the default — disables degraded mode:
	// any party failure fails the whole search. Like Parallelism it is a
	// runtime knob, not persisted with owner snapshots.
	MinParties int
	// CacheBytes enables the federated answer cache (internal/qcache)
	// when > 0: per-(party, term) noisy RTK answers and merged query
	// results are retained up to this byte capacity and replayed at zero
	// additional privacy cost (DP post-processing invariance). 0 — the
	// default — disables caching entirely, reproducing the uncached
	// protocol exactly. A runtime knob like Parallelism: not persisted,
	// no effect on protocol messages.
	CacheBytes int64
	// CacheMaxStale bounds degraded-mode stale serving: when > 0 and a
	// party is skipped (breaker open) or fails mid-search, its
	// contribution may be backfilled from a cache entry at most this old
	// — possibly from before the party's latest ingest — instead of
	// being dropped from the merge. 0 — the default — never serves stale
	// answers. Only meaningful with CacheBytes > 0 and MinParties > 0.
	CacheMaxStale time.Duration
	// Shards partitions each party's corpus across this many owner
	// shards by doc-range (internal/shard); queries scatter-gather over
	// the shards and merge deterministically, bit-identical to a 1 × 1
	// group at Epsilon=0. 0 or 1 — the default — with one replica makes
	// each field a 1 × 1 group: one owner, called directly. A runtime
	// knob like Parallelism: not a protocol parameter, not persisted,
	// invisible to the DP accountant (one noise draw per released answer
	// at every fan).
	Shards int
	// Replicas is the number of read replicas per shard (>= 1 means
	// that many copies; 0 — the default — resolves to 1). Replicas hold
	// identical state — ingestion writes through to all of them — so a
	// replica failing over to a peer never changes query results. A
	// runtime knob like Parallelism.
	Replicas int
}

// DefaultParams returns the paper's default parameter setting.
func DefaultParams() Params {
	return Params{
		SketchKind: sketch.Count,
		HashKind:   hashutil.KindPolynomial,
		Z:          30,
		W:          200,
		Z1:         10,
		Epsilon:    0.5,
		Alpha:      5,
		Beta:       0.1,
		K:          150,
	}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.Z <= 0:
		return fmt.Errorf("%w: Z=%d", ErrBadParams, p.Z)
	case p.W < 2:
		return fmt.Errorf("%w: W=%d", ErrBadParams, p.W)
	case p.Z1 <= 0 || p.Z1 > p.Z:
		return fmt.Errorf("%w: Z1=%d must be in [1, Z=%d]", ErrBadParams, p.Z1, p.Z)
	case p.Epsilon < 0:
		return fmt.Errorf("%w: Epsilon=%v", ErrBadParams, p.Epsilon)
	case p.Alpha <= 0:
		return fmt.Errorf("%w: Alpha=%d", ErrBadParams, p.Alpha)
	case p.Beta <= 0 || p.Beta > 1:
		return fmt.Errorf("%w: Beta=%v", ErrBadParams, p.Beta)
	case p.K <= 0:
		return fmt.Errorf("%w: K=%d", ErrBadParams, p.K)
	case p.Estimator != EstimatorZeroFill && p.Estimator != EstimatorPresentRows:
		return fmt.Errorf("%w: Estimator=%d", ErrBadParams, int(p.Estimator))
	case p.Parallelism < 0:
		return fmt.Errorf("%w: Parallelism=%d", ErrBadParams, p.Parallelism)
	case p.MinParties < 0:
		return fmt.Errorf("%w: MinParties=%d", ErrBadParams, p.MinParties)
	case p.CacheBytes < 0:
		return fmt.Errorf("%w: CacheBytes=%d", ErrBadParams, p.CacheBytes)
	case p.CacheMaxStale < 0:
		return fmt.Errorf("%w: CacheMaxStale=%v", ErrBadParams, p.CacheMaxStale)
	case p.Shards < 0:
		return fmt.Errorf("%w: Shards=%d", ErrBadParams, p.Shards)
	case p.Replicas < 0:
		return fmt.Errorf("%w: Replicas=%d", ErrBadParams, p.Replicas)
	}
	return nil
}

// HeapCap returns the RTK cell capacity alpha*K.
func (p Params) HeapCap() int { return p.Alpha * p.K }

// Workers resolves the Parallelism knob to a concrete worker count for a
// workload of n independent tasks — a search's party exchanges, a bulk
// load's term counting: 0 means runtime.GOMAXPROCS(0), and the result is
// clamped to [1, n].
func (p Params) Workers(n int) int {
	w := p.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Family constructs the shared hash family for these parameters from the
// federation seed (see hashutil.DeriveSeed / package keyex).
func (p Params) Family(seed uint64) (*hashutil.Family, error) {
	return hashutil.NewFamily(p.HashKind, p.Z, p.W, seed)
}

// Cost records the communication and computation cost of one protocol
// interaction, the quantities compared in Fig. 4 and Section VI-D.
type Cost struct {
	Messages      int   // request/response round trips
	BytesSent     int64 // querier -> owner payload bytes
	BytesReceived int64 // owner -> querier payload bytes
	SketchLookups int   // individual sketch cell lookups at the owner
}

// Add accumulates other into c.
func (c *Cost) Add(other Cost) {
	c.Messages += other.Messages
	c.BytesSent += other.BytesSent
	c.BytesReceived += other.BytesReceived
	c.SketchLookups += other.SketchLookups
}

// DocCount is one reverse top-K result: a document and its estimated
// term count.
type DocCount struct {
	DocID int
	Count float64
}
