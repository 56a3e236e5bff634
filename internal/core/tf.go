package core

import (
	"fmt"
	"math/rand"
	"sync"

	"csfltr/internal/dp"
	"csfltr/internal/hashutil"
	"csfltr/internal/sketch"
)

// TFQuery is the public part of a cross-party TF query: one column index
// per sketch row, of which only the private index set's entries hash the
// real term (Algorithm 1, "Hashing With Obfuscation"). It reveals nothing
// about which entries are real.
type TFQuery struct {
	Cols []uint32
}

// WireSize returns the encoded size in bytes used for communication
// accounting (4 bytes per column index).
func (q *TFQuery) WireSize() int64 { return int64(4 * len(q.Cols)) }

// TFPrivate is the querier-side private state needed to recover the
// answer: the private index set PV and the queried term. It never leaves
// the querier.
type TFPrivate struct {
	Term uint64
	PV   []int // rows whose column index is real, sorted ascending
}

// TFResponse carries the owner's perturbed sketch lookups, one per row
// (Algorithm 2).
//
// A reply has one holder, as an RTKResponse does: whoever obtains one
// from OwnerAPI.AnswerTF or a decoder owns it, an implementation of
// OwnerAPI must not hand out a reply it keeps, and the holder may, when
// done, Release it. Unlike a reverse top-K reply, a released TF reply is
// recycled whole, header included — it is a few hundred bytes asked ~100
// times per augmented training query, so the header is most of what it
// costs — which makes Release the holder's last touch of the reply, not
// only of its values.
type TFResponse struct {
	Values []float64

	// mem is the memory NewTFResponse leased the reply, at length 0; nil
	// for a reply it did not make (a literal), which Release leaves alone.
	mem []float64
}

// WireSize returns the encoded size in bytes (8 bytes per value).
func (r *TFResponse) WireSize() int64 { return int64(8 * len(r.Values)) }

// tfReplies holds released TF replies, their values parked in mem.
var tfReplies sync.Pool

// tfMaxValues bounds the values a recycled reply keeps: a reply has one
// per sketch row, and a decoder accepts as many as its frame bears out.
const tfMaxValues = 1 << 12

// NewTFResponse returns a reply of z values for a producer to fill —
// a released reply when one is at hand, so an answer costs nothing. Every
// producer of a reply comes through here. The values are not zeroed: a
// producer writes all z of them, and they end at the reply's capacity,
// so nothing an earlier reply left in the memory is reachable.
func NewTFResponse(z int) *TFResponse {
	if r, _ := tfReplies.Get().(*TFResponse); r != nil && cap(r.mem) >= z {
		r.Values = r.mem[:z:z]
		return r
	}
	mem := make([]float64, z)
	return &TFResponse{Values: mem, mem: mem[:0]}
}

// Release ends the reply's life: it goes back to serve a later answer
// and, until then, holds no values, so a holder that should not exist
// fails Recover (ErrBadQuery). Only the reply's sole holder may call it,
// after its last read. It is a no-op on nil, on a reply NewTFResponse did
// not make and on one already released.
func (r *TFResponse) Release() {
	if r == nil || r.mem == nil || r.Values == nil {
		return
	}
	r.Values = nil
	if cap(r.mem) <= tfMaxValues {
		tfReplies.Put(r)
	}
}

// PerturbTF releases a TF reply of exact counts as Algorithm 2 does: one
// draw from mech, added to all z values. It is where every TF reply, an
// owner's or a shard facade's, becomes what leaves its producer.
func PerturbTF(resp *TFResponse, mech dp.Mechanism) {
	noise := mech.Sample()
	for i := range resp.Values {
		resp.Values[i] += noise
	}
}

// Querier is the query-side endpoint of the cross-party TF protocol. It
// is bound to a federation's shared parameters and hash family. The rng
// drives decoy selection and PV permutation.
//
// A Querier is safe for concurrent use — a gateway serves concurrent
// searches from one party. Its lock guards the rng and the scratch the
// draws go through, and is held for the draws only (and for Recover's
// scratch), never across an owner call; concurrent callers then take
// the draws in the order they reach the lock.
type Querier struct {
	params Params
	fam    *hashutil.Family

	mu   sync.Mutex
	rng  *rand.Rand
	perm []int     // obfuscate: the row permutation PV is drawn from
	inPV []bool    // obfuscate: which rows carry the real hash
	vals []float64 // Recover: the private rows' values
}

// NewQuerier builds a querier from shared params, the federation hash
// seed and a private random source.
func NewQuerier(params Params, seed uint64, rng *rand.Rand) (*Querier, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadParams)
	}
	fam, err := params.Family(seed)
	if err != nil {
		return nil, err
	}
	return &Querier{
		params: params, fam: fam, rng: rng,
		perm: make([]int, params.Z), inPV: make([]bool, params.Z), vals: make([]float64, 0, params.Z1),
	}, nil
}

// Params returns the shared protocol parameters.
func (q *Querier) Params() Params { return q.params }

// Family exposes the shared hash family (needed by in-process tests and
// the feature layer).
func (q *Querier) Family() *hashutil.Family { return q.fam }

// BuildQuery obfuscates term into a TFQuery plus the private recovery
// state. Exactly Z1 rows carry the real hash h_a(term); the remaining
// rows carry h_a(t') for freshly sampled decoy terms t' (Eq. (4) of the
// paper).
func (q *Querier) BuildQuery(term uint64) (*TFQuery, *TFPrivate) {
	query := &TFQuery{Cols: make([]uint32, q.params.Z)}
	priv := &TFPrivate{Term: term, PV: make([]int, q.params.Z1)}
	q.obfuscate(term, query.Cols, priv.PV)
	return query, priv
}

// obfuscate is Algorithm 1 into the caller's memory: pv (Z1 long)
// receives the private rows, ascending, and cols (Z long) one column per
// row. Every path that builds a query draws here, so they all draw the
// same values in the same order.
func (q *Querier) obfuscate(term uint64, cols []uint32, pv []int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// rand.Perm, draw for draw, into the kept slice. Nothing needs
	// resetting: the one element a step can read before any step wrote it
	// is its own (j == i), which the step then overwrites.
	perm := q.perm
	for i := range perm {
		j := q.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	copy(pv, perm)
	sortInts(pv)
	inPV := q.inPV
	clear(inPV)
	for _, a := range pv {
		inPV[a] = true
	}
	for a := range cols {
		if inPV[a] {
			cols[a] = q.fam.Index(a, term)
		} else {
			cols[a] = q.fam.Index(a, q.rng.Uint64())
		}
	}
}

// Plan is a reusable obfuscated query for one term: the wire-format query
// plus the private recovery state, bound to the parameters and hash family
// they were built with. Building a plan consumes querier randomness once;
// the plan itself is immutable afterwards and safe to share across
// goroutines, which lets a federated search obfuscate each query term once
// and fan the same plan out to every party instead of rebuilding the hash
// vector per (party, term).
type Plan struct {
	params Params
	fam    *hashutil.Family
	query  TFQuery
	priv   TFPrivate
	// signs[i] is the Count Sketch sign hash g_a(term) of private row
	// a = priv.PV[i] as +-1, evaluated once here rather than once per
	// candidate document of every answer the plan recovers.
	signs []float64
}

// Plan builds a reusable query plan for term (Algorithm 1 run once).
func (q *Querier) Plan(term uint64) *Plan {
	p := new(Plan)
	q.PlanInto(p, term)
	return p
}

// PlanInto builds the plan for term in p, as Plan does, reusing p's
// memory: a caller that keeps its plans between queries builds them
// without allocating (a federated search holds its plans in pooled
// state).
func (q *Querier) PlanInto(p *Plan, term uint64) {
	p.params, p.fam = q.params, q.fam
	p.query.Cols = resize(p.query.Cols, q.params.Z)
	p.priv.Term, p.priv.PV = term, resize(p.priv.PV, q.params.Z1)
	p.signs = resize(p.signs, q.params.Z1)
	q.obfuscate(term, p.query.Cols, p.priv.PV)
	for i, a := range p.priv.PV {
		p.signs[i] = float64(q.fam.Sign(a, term))
	}
}

// Term returns the planned term.
func (p *Plan) Term() uint64 { return p.priv.Term }

// Query returns the shareable wire query (the private state stays
// inside the plan).
func (p *Plan) Query() *TFQuery { return &p.query }

// Recover combines the owner's perturbed values into the final count
// estimate using only the private index set (Eq. (6)): sign-corrected
// median for Count Sketch, minimum for Count-Min.
func (q *Querier) Recover(priv *TFPrivate, resp *TFResponse) (float64, error) {
	if err := checkTFResponse(resp, q.params.Z); err != nil {
		return 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	vals := q.vals[:0]
	for _, a := range priv.PV {
		vals = append(vals, resp.Values[a])
	}
	q.vals = vals
	return sketch.EstimateFromRows(q.params.SketchKind, q.fam, priv.Term, priv.PV, vals), nil
}

// checkTFResponse refuses a reply without one value per row — a released
// one among them.
func checkTFResponse(resp *TFResponse, z int) error {
	if resp == nil || len(resp.Values) != z {
		return fmt.Errorf("%w: response has %d values, want %d", ErrBadQuery, respLen(resp), z)
	}
	return nil
}

// planScratch is the working memory of the one-shot queries, CrossTF and
// RTKReverseTopK, pooled so that neither allocates its plan: the plan,
// and the private rows' values a TF recovery reads.
type planScratch struct {
	plan Plan
	vals []float64
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// CrossTF runs one cross-party TF query end to end, as RTKWithPlan does a
// reverse top-K one: Algorithm 1 into pooled scratch (the draws
// BuildQuery makes, in the same order), the owner's Algorithm 2 for
// document docID, and recovery by Eq. (6) — bit-identical to Recover's —
// after which the reply is released. In steady state it allocates
// nothing. owner must not keep the query past the call.
func CrossTF(q *Querier, owner OwnerAPI, docID int, term uint64) (float64, error) {
	sc := planScratchPool.Get().(*planScratch)
	defer planScratchPool.Put(sc)
	plan := &sc.plan
	q.PlanInto(plan, term)
	resp, err := owner.AnswerTF(docID, &plan.query)
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if err := checkTFResponse(resp, plan.params.Z); err != nil {
		return 0, err
	}
	vals := sc.vals[:0]
	for _, a := range plan.priv.PV {
		vals = append(vals, resp.Values[a])
	}
	sc.vals = vals
	return sketch.EstimateSigned(plan.params.SketchKind, plan.signs, vals), nil
}

// resize returns s at length n, reusing its memory when it is enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func respLen(r *TFResponse) int {
	if r == nil {
		return 0
	}
	return len(r.Values)
}

// sortInts is a tiny insertion sort; PV has at most Z elements.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
