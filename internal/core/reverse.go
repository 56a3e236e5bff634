package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"csfltr/internal/sketch"
)

// NaiveReverseTopK implements Algorithm 3: query the term's frequency in
// every document of the owner via the privacy-preserving TF protocol and
// keep the k largest estimates. The obfuscated hash vector is built once
// per term (Algorithm 1) and reused for all documents; the owner answers
// one perturbed lookup per document, so computation is O(z*n) and the
// response traffic grows linearly in n.
func NaiveReverseTopK(q *Querier, owner OwnerAPI, term uint64, k int) ([]DocCount, Cost, error) {
	return NaiveWithPlan(q.Plan(term), owner, k)
}

// NaiveWithPlan is NaiveReverseTopK over a prebuilt query plan (see
// Querier.Plan): the obfuscated hash vector is reused rather than
// rebuilt, so the same plan can serve several owners. Cost accounting is
// identical to the build-per-call path — the query is still sent (and its
// bytes counted) once per owner.
//
//csfltr:deterministic
func NaiveWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	if k <= 0 {
		return nil, Cost{}, fmt.Errorf("%w: k=%d", ErrBadParams, k)
	}
	query, priv := plan.query, plan.priv
	var cost Cost
	cost.BytesSent += query.WireSize()
	ids := owner.DocIDs()
	results := make([]DocCount, 0, len(ids))
	for _, id := range ids {
		resp, err := owner.AnswerTF(id, query)
		if err != nil {
			return nil, cost, fmt.Errorf("core: naive TF query for doc %d: %w", id, err)
		}
		cost.Messages++
		cost.BytesReceived += resp.WireSize()
		cost.SketchLookups += plan.params.Z
		if len(resp.Values) != plan.params.Z {
			return nil, cost, fmt.Errorf("%w: response has %d values, want %d",
				ErrBadQuery, len(resp.Values), plan.params.Z)
		}
		vals := make([]float64, len(priv.PV))
		for i, a := range priv.PV {
			vals[i] = resp.Values[a]
		}
		count := sketch.EstimateFromRows(plan.params.SketchKind, plan.fam, priv.Term, priv.PV, vals)
		results = append(results, DocCount{DocID: id, Count: count})
	}
	return topK(results, k), cost, nil
}

// RTKReverseTopK implements Algorithm 5: fetch the RTK-Sketch cells the
// term hashes to, soft-intersect them (a document must appear in at least
// beta*z1 of the private rows), estimate each candidate's count with the
// standard sketch estimator over the rows it appeared in, and return the
// top k. One round trip; traffic is O(z*alpha*K) independent of n.
func RTKReverseTopK(q *Querier, owner OwnerAPI, term uint64, k int) ([]DocCount, Cost, error) {
	return RTKWithPlan(q.Plan(term), owner, k)
}

// RTKWithPlan is RTKReverseTopK over a prebuilt query plan (see
// Querier.Plan). A federated search builds one plan per query term and
// fans it out to every party concurrently; the plan is read-only here, so
// concurrent calls sharing a plan are safe. Cost accounting is identical
// to the build-per-call path — the query is still sent (and its bytes
// counted) once per owner.
//
//csfltr:deterministic
func RTKWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	if k <= 0 {
		return nil, Cost{}, fmt.Errorf("%w: k=%d", ErrBadParams, k)
	}
	query, priv := plan.query, plan.priv
	var cost Cost
	cost.BytesSent += query.WireSize()
	resp, err := owner.AnswerRTK(query)
	if err != nil {
		return nil, cost, err
	}
	cost.Messages = 1
	cost.BytesReceived += resp.WireSize()
	cost.SketchLookups = plan.params.Z
	if err := checkRTKResponse(resp, plan.params.Z); err != nil {
		return nil, cost, err
	}

	// Soft intersection: keep documents present in >= beta*z1 private rows
	// (the paper filters on beta*z with unobfuscated queries).
	threshold := int(math.Ceil(plan.params.Beta * float64(plan.params.Z1)))
	if threshold < 1 {
		threshold = 1
	}
	zeroFill := plan.params.Estimator == EstimatorZeroFill

	// Walk the private rows only — decoy rows address unrelated cells and
	// would pollute the intersection — as a k-way merge by DocID: every
	// cell ascends, so each round takes the smallest id any row's cursor
	// points at and collects that document's value from every row holding
	// it, in PV order. Both estimator inputs are filled on the way: one
	// slot per private row, zero where the document is absent, and the
	// compacted present rows with their signs.
	sc := rtkScratchPool.Get().(*rtkScratch)
	defer rtkScratchPool.Put(sc)
	sc.size(len(priv.PV))
	for i, a := range priv.PV {
		sc.ids[i], sc.cellVals[i] = resp.Cells[a].IDs, resp.Cells[a].Values
		sc.pos[i] = 0
		sc.head[i] = headID(sc.ids[i], 0)
	}
	candidates := sc.candidates[:0]
	for {
		next := noHead
		for _, h := range sc.head {
			next = min(next, h)
		}
		if next == noHead {
			break
		}
		n := 0
		for i, h := range sc.head {
			if h != next {
				sc.filled[i] = 0
				continue
			}
			p := sc.pos[i]
			v := sc.cellVals[i][p]
			sc.filled[i] = v
			sc.signs[n], sc.vals[n] = plan.signs[i], v
			n++
			sc.pos[i] = p + 1
			sc.head[i] = headID(sc.ids[i], p+1)
		}
		if n < threshold {
			continue
		}
		// Zero-fill estimates over ALL private rows, treating rows where
		// the document was evicted from the heap as zeros. An absent entry
		// means the document's cell value fell below the heap floor;
		// scoring only the rows where it survived would bias borderline
		// documents upward (they survive exactly where collision noise
		// inflated them) and let weak candidates outrank true top-K
		// members.
		signs, vals := plan.signs, sc.filled
		if !zeroFill {
			signs, vals = sc.signs[:n], sc.vals[:n]
		}
		est := sketch.EstimateSigned(plan.params.SketchKind, signs, vals)
		candidates = append(candidates, DocCount{DocID: int(next), Count: est})
	}
	for i := range sc.ids {
		sc.ids[i], sc.cellVals[i] = nil, nil // the pool must not pin the response
	}
	sc.candidates = candidates // keep the grown buffer for the next query
	top := topK(candidates, k)
	out := make([]DocCount, len(top)) // callers retain the result
	copy(out, top)
	return out, cost, nil
}

// checkRTKResponse validates an owner's answer before recovery indexes
// into it: z cells, each with one value per id and ids strictly
// ascending (the canonical order every producer emits and the merge in
// RTKWithPlan relies on; it also rejects a document listed twice in one
// row). Responses cross transports, so a faulty or hostile remote party
// must surface as an error, never as an out-of-range panic.
func checkRTKResponse(resp *RTKResponse, z int) error {
	if len(resp.Cells) != z {
		return fmt.Errorf("%w: response has %d cells, want %d", ErrBadQuery, len(resp.Cells), z)
	}
	for a, cell := range resp.Cells {
		if len(cell.Values) != len(cell.IDs) {
			return fmt.Errorf("%w: response row %d has %d ids but %d values",
				ErrBadQuery, a, len(cell.IDs), len(cell.Values))
		}
		for i := 1; i < len(cell.IDs); i++ {
			if cell.IDs[i] <= cell.IDs[i-1] {
				return fmt.Errorf("%w: response row %d is not in ascending document order", ErrBadQuery, a)
			}
		}
	}
	return nil
}

// rtkScratch is the per-call working memory of RTKWithPlan, pooled so a
// query allocates only the result it returns. All but candidates hold
// one slot per private row: the row's ids and values, the merge cursor
// and the id under it, then the current document's values zero-filled
// and compacted (with the signs of the rows it is present in).
type rtkScratch struct {
	ids        [][]int32
	cellVals   [][]float64
	pos        []int
	head       []int64
	filled     []float64
	signs      []float64
	vals       []float64
	candidates []DocCount
}

var rtkScratchPool = sync.Pool{New: func() any { return new(rtkScratch) }}

func (sc *rtkScratch) size(z1 int) {
	if cap(sc.pos) < z1 {
		sc.ids, sc.cellVals = make([][]int32, z1), make([][]float64, z1)
		sc.pos, sc.head = make([]int, z1), make([]int64, z1)
		sc.filled, sc.signs, sc.vals = make([]float64, z1), make([]float64, z1), make([]float64, z1)
	}
	sc.ids, sc.cellVals = sc.ids[:z1], sc.cellVals[:z1]
	sc.pos, sc.head = sc.pos[:z1], sc.head[:z1]
	sc.filled, sc.signs, sc.vals = sc.filled[:z1], sc.signs[:z1], sc.vals[:z1]
}

// noHead is the cursor value of an exhausted row; wider than any DocID.
const noHead = int64(math.MaxInt64)

func headID(ids []int32, pos int) int64 {
	if pos < len(ids) {
		return int64(ids[pos])
	}
	return noHead
}

// topK orders results by descending count (ties by ascending id for
// determinism) and truncates to k, in place. Only the k best are ever
// ordered: results[:m] is kept sorted as the scan proceeds, and an
// element that does not beat the current k-th — almost all of them, when
// k is a small share of the candidates — costs a single comparison.
//
//csfltr:deterministic
func topK(results []DocCount, k int) []DocCount {
	if k <= 0 {
		return results[:0]
	}
	rank := func(a, b DocCount) int {
		if c := cmp.Compare(b.Count, a.Count); c != 0 {
			return c
		}
		return cmp.Compare(a.DocID, b.DocID)
	}
	m := 0
	for _, r := range results {
		if m == k && rank(r, results[m-1]) >= 0 {
			continue
		}
		at, _ := slices.BinarySearchFunc(results[:m], r, rank)
		if m < k {
			m++
		}
		copy(results[at+1:m], results[at:])
		results[at] = r
	}
	return results[:m]
}

// ExactReverseTopK computes the ground-truth reverse top-K over raw term
// counts (no sketching, no privacy): the reference answer for cover-rate
// evaluation. counts maps docID -> term -> count.
//
//csfltr:deterministic
func ExactReverseTopK(counts map[int]map[uint64]int64, term uint64, k int) []DocCount {
	results := make([]DocCount, 0, len(counts))
	for id, tc := range counts {
		if c := tc[term]; c > 0 {
			//csfltr:allow determinism -- results are fully re-ordered by topK's (count, id) sort before any order-dependent use
			results = append(results, DocCount{DocID: id, Count: float64(c)})
		}
	}
	return topK(results, k)
}

// CoverRate returns |got ∩ truth| / |truth|, the paper's cover-rate metric
// for reverse top-K accuracy (Theorem 4, Fig. 4). An empty truth set
// yields 1 by convention.
func CoverRate(got []DocCount, truth []DocCount) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[int]struct{}, len(got))
	for _, dc := range got {
		set[dc.DocID] = struct{}{}
	}
	hit := 0
	for _, dc := range truth {
		if _, ok := set[dc.DocID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}
