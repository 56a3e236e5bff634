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
	query, priv := &plan.query, &plan.priv
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
		if n := len(resp.Values); n != plan.params.Z {
			resp.Release()
			return nil, cost, fmt.Errorf("%w: response has %d values, want %d",
				ErrBadQuery, n, plan.params.Z)
		}
		vals := make([]float64, len(priv.PV))
		for i, a := range priv.PV {
			vals[i] = resp.Values[a]
		}
		resp.Release()
		count := sketch.EstimateFromRows(plan.params.SketchKind, plan.fam, priv.Term, priv.PV, vals)
		results = append(results, DocCount{DocID: id, Count: count})
	}
	return topK(results, k), cost, nil
}

// RTKReverseTopK implements Algorithm 5: fetch the RTK-Sketch cells the
// term hashes to, soft-intersect them (a document must appear in at least
// beta*z1 of the private rows), estimate each candidate's count with the
// standard sketch estimator over the rows it appeared in, and return the
// top k. One round trip; traffic is O(z*alpha*K) independent of n. The
// plan lives for the call only, so it is built in pooled scratch, as
// CrossTF's is.
func RTKReverseTopK(q *Querier, owner OwnerAPI, term uint64, k int) ([]DocCount, Cost, error) {
	sc := planScratchPool.Get().(*planScratch)
	defer planScratchPool.Put(sc)
	q.planInto(&sc.plan, term)
	return RTKWithPlan(&sc.plan, owner, k)
}

// RTKWithPlan is RTKReverseTopK over a prebuilt query plan (see
// Querier.Plan): RTKWithPlans for one plan. Cost accounting is
// identical to the build-per-call path — the query is still sent (and
// its bytes counted) once per owner.
//
//csfltr:deterministic
func RTKWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	var docs [1][]DocCount
	var costs [1]Cost
	err := rtkWithPlans([]*Plan{plan}, owner, k, docs[:], costs[:])
	return docs[0], costs[0], err
}

// RTKWithPlans runs the reverse top-K queries of several plans against
// one owner in a single exchange (OwnerAPI.AnswerRTKBatch) and recovers
// each plan's top k from its reply: per plan, the documents and the cost
// RTKWithPlan would have returned. A federated search builds one plan
// per query term and sends each party the plans it still needs; plans
// are read-only here, so concurrent calls sharing them are safe. It is
// all or nothing — an error from the owner or from any reply leaves no
// documents — and every reply of the exchange is released before it
// returns, recovered or not.
//
//csfltr:deterministic
func RTKWithPlans(plans []*Plan, owner OwnerAPI, k int) ([][]DocCount, []Cost, error) {
	docs, costs := make([][]DocCount, len(plans)), make([]Cost, len(plans))
	if err := rtkWithPlans(plans, owner, k, docs, costs); err != nil {
		return nil, costs, err
	}
	return docs, costs, nil
}

func rtkWithPlans(plans []*Plan, owner OwnerAPI, k int, docs [][]DocCount, costs []Cost) error {
	if k <= 0 {
		return fmt.Errorf("%w: k=%d", ErrBadParams, k)
	}
	sc := rtkScratchPool.Get().(*rtkScratch)
	defer rtkScratchPool.Put(sc)
	sc.queries, sc.replies = sc.queries[:0], sc.replies[:0]
	for i, plan := range plans {
		sc.queries = append(sc.queries, &plan.query)
		sc.replies = append(sc.replies, nil)
		costs[i].BytesSent = plan.query.WireSize()
	}
	// The answers are this call's alone and are not needed once the
	// candidates are recovered from them; what is returned is a copy.
	defer func() {
		for i, resp := range sc.replies {
			resp.Release()
			sc.queries[i], sc.replies[i] = nil, nil // the scratch pins no one's query
		}
	}()
	if err := AnswerRTKs(owner, sc.queries, sc.replies); err != nil {
		return err
	}
	for i, plan := range plans {
		var err error
		if docs[i], err = sc.recover(plan, sc.replies[i], k, &costs[i]); err != nil {
			clear(docs)
			return err
		}
	}
	return nil
}

// recover is the querier side of Algorithm 5 for one reply: it checks
// the reply, accounts it in cost and returns the plan's top k.
func (sc *rtkScratch) recover(plan *Plan, resp *RTKResponse, k int, cost *Cost) ([]DocCount, error) {
	priv := &plan.priv
	cost.Messages = 1
	cost.BytesReceived += resp.WireSize()
	cost.SketchLookups = plan.params.Z
	if err := checkRTKResponse(resp, plan.params.Z); err != nil {
		return nil, err
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
	// it, in PV order, noting the smallest id left under the cursors for
	// the next round. Both estimator inputs are filled on the way: one
	// slot per private row, zero where the document is absent, and the
	// compacted present rows with their signs.
	sc.size(len(priv.PV))
	next := noHead
	for i, a := range priv.PV {
		sc.ids[i], sc.cellVals[i] = resp.Cells[a].IDs, resp.Cells[a].Values
		sc.pos[i] = 0
		sc.head[i] = headID(sc.ids[i], 0)
		next = min(next, sc.head[i])
	}
	median := plan.params.SketchKind == sketch.Count
	// best holds the at most k best candidates so far, in result order.
	// Once it holds k, a candidate enters only with an estimate above
	// floor, the k-th count: ids arrive ascending, so a tie loses. Until
	// then floor is NaN, which nothing compares to.
	best, floor := sc.candidates[:0], math.NaN()
	for next != noHead {
		cur, n := next, 0
		next = noHead
		for i, h := range sc.head {
			if h == cur {
				p := sc.pos[i]
				v := sc.cellVals[i][p]
				sc.filled[i] = v
				sc.signs[n], sc.vals[n] = plan.signs[i], v
				n++
				sc.pos[i] = p + 1
				h = headID(sc.ids[i], p+1)
				sc.head[i] = h
			} else {
				sc.filled[i] = 0
			}
			next = min(next, h)
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
		if median && medianAtMost(signs, vals, floor) {
			continue // cannot enter: no need to sort for its median
		}
		est := sketch.EstimateSigned(plan.params.SketchKind, signs, vals)
		best = keepTop(best, DocCount{DocID: int(cur), Count: est}, k)
		if len(best) == k {
			floor = best[k-1].Count
		}
	}
	for i := range sc.ids {
		sc.ids[i], sc.cellVals[i] = nil, nil // the scratch must not outlive the response's rows
	}
	sc.candidates = best               // keep the grown buffer for the next query
	out := make([]DocCount, len(best)) // callers retain the result
	copy(out, best)
	return out, nil
}

// medianAtMost reports whether the median of the signed values —
// sketch.EstimateSigned's Count Sketch estimate — is certain to be at
// most bound, in one pass and without ordering them. The median of m
// values is at most the larger of the two central ones, their m/2-th
// order statistic, and that is at most bound once more than m/2 values
// are. Certain means for every input: a value that does not compare (NaN
// from a hostile party; the sort's order is then unspecified) or a bound
// that does not (NaN, or so large that the mean of two values below it
// could overflow above it) proves nothing.
func medianAtMost(signs, vals []float64, bound float64) bool {
	if !(bound <= math.MaxFloat64/2) {
		return false
	}
	le, gt := 0, 0
	for i, g := range signs {
		if x := vals[i] * g; x <= bound {
			le++
		} else if x > bound {
			gt++
		}
	}
	return le > len(vals)/2 && le+gt == len(vals)
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
	// One exchange's queries and the replies it holds until recovery ends.
	queries []*TFQuery
	replies []*RTKResponse
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
// determinism) and truncates to k, in place: the results already scanned
// always cover the at most k kept.
//
//csfltr:deterministic
func topK(results []DocCount, k int) []DocCount {
	best := results[:0]
	for _, r := range results {
		best = keepTop(best, r, k)
	}
	return best
}

// rankDocs is the result order: count descending, ties by ascending id.
func rankDocs(a, b DocCount) int {
	if c := cmp.Compare(b.Count, a.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.DocID, b.DocID)
}

// keepTop offers r to best, the at most k best results so far in result
// order, and returns best with r inserted if it belongs. Only the k best
// are ever ordered, and a result that does not beat the current k-th —
// almost all of them, when k is a small share of the candidates — costs a
// single comparison.
func keepTop(best []DocCount, r DocCount, k int) []DocCount {
	m := len(best)
	if m >= k && (k <= 0 || rankDocs(r, best[m-1]) >= 0) {
		return best
	}
	at, _ := slices.BinarySearchFunc(best, r, rankDocs)
	if m < k {
		best = append(best, r)
	}
	copy(best[at+1:], best[at:])
	best[at] = r
	return best
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
