package core

import (
	"fmt"
	"math/rand"

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
type TFResponse struct {
	Values []float64
}

// WireSize returns the encoded size in bytes (8 bytes per value).
func (r *TFResponse) WireSize() int64 { return int64(8 * len(r.Values)) }

// Querier is the query-side endpoint of the cross-party TF protocol. It
// is bound to a federation's shared parameters and hash family. The rng
// drives decoy selection and PV permutation, and BuildQuery, Plan and
// Recover work in scratch the querier keeps: one goroutine at a time.
type Querier struct {
	params Params
	fam    *hashutil.Family
	rng    *rand.Rand

	perm []int     // BuildQuery: the row permutation PV is drawn from
	inPV []bool    // BuildQuery: which rows carry the real hash
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
	z := q.params.Z
	// rand.Perm, draw for draw, into the kept slice. Nothing needs
	// resetting: the one element a step can read before any step wrote it
	// is its own (j == i), which the step then overwrites.
	perm := q.perm
	for i := range perm {
		j := q.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	pv := append([]int(nil), perm[:q.params.Z1]...)
	sortInts(pv)
	inPV := q.inPV
	clear(inPV)
	for _, a := range pv {
		inPV[a] = true
	}
	cols := make([]uint32, z)
	for a := 0; a < z; a++ {
		if inPV[a] {
			cols[a] = q.fam.Index(a, term)
		} else {
			cols[a] = q.fam.Index(a, q.rng.Uint64())
		}
	}
	return &TFQuery{Cols: cols}, &TFPrivate{Term: term, PV: pv}
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
	query  *TFQuery
	priv   *TFPrivate
	// signs[i] is the Count Sketch sign hash g_a(term) of private row
	// a = priv.PV[i] as +-1, evaluated once here rather than once per
	// candidate document of every answer the plan recovers.
	signs []float64
}

// Plan builds a reusable query plan for term (Algorithm 1 run once).
func (q *Querier) Plan(term uint64) *Plan {
	query, priv := q.BuildQuery(term)
	signs := make([]float64, len(priv.PV))
	for i, a := range priv.PV {
		signs[i] = float64(q.fam.Sign(a, term))
	}
	return &Plan{params: q.params, fam: q.fam, query: query, priv: priv, signs: signs}
}

// Term returns the planned term.
func (p *Plan) Term() uint64 { return p.priv.Term }

// Query returns the shareable wire query (the private state stays
// inside the plan).
func (p *Plan) Query() *TFQuery { return p.query }

// Recover combines the owner's perturbed values into the final count
// estimate using only the private index set (Eq. (6)): sign-corrected
// median for Count Sketch, minimum for Count-Min.
func (q *Querier) Recover(priv *TFPrivate, resp *TFResponse) (float64, error) {
	if resp == nil || len(resp.Values) != q.params.Z {
		return 0, fmt.Errorf("%w: response has %d values, want %d",
			ErrBadQuery, respLen(resp), q.params.Z)
	}
	vals := q.vals[:0]
	for _, a := range priv.PV {
		vals = append(vals, resp.Values[a])
	}
	q.vals = vals
	return sketch.EstimateFromRows(q.params.SketchKind, q.fam, priv.Term, priv.PV, vals), nil
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
