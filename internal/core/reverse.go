package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
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
	vals := make([]float64, len(priv.PV)) // refilled per document; the estimate consumes it
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
		for i, a := range priv.PV {
			vals[i] = resp.Values[a]
		}
		resp.Release()
		count := sketch.EstimateSigned(plan.params.SketchKind, plan.signs, vals)
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
	q.PlanInto(&sc.plan, term)
	return RTKWithPlan(&sc.plan, owner, k)
}

// RTKWithPlan is RTKReverseTopK over a prebuilt query plan (see
// Querier.Plan): RTKWithPlans for one plan, returning a list the caller
// keeps. Cost accounting is identical to the build-per-call path — the
// query is still sent (and its bytes counted) once per owner.
//
//csfltr:deterministic
func RTKWithPlan(plan *Plan, owner OwnerAPI, k int) ([]DocCount, Cost, error) {
	sc := rtkScratchPool.Get().(*rtkScratch)
	defer rtkScratchPool.Put(sc)
	docs := [1][]DocCount{sc.candidates[:0]}
	var costs [1]Cost
	if err := sc.rtkWithPlans([]*Plan{plan}, owner, k, docs[:], costs[:]); err != nil {
		return nil, costs[0], err
	}
	sc.candidates = docs[0][:0]           // keep the grown buffer for the next query
	out := make([]DocCount, len(docs[0])) // callers retain the result
	copy(out, docs[0])
	return out, costs[0], nil
}

// RTKWithPlans runs the reverse top-K queries of several plans against
// one owner in a single exchange (OwnerAPI.AnswerRTKBatch) and recovers
// each plan's top k from its reply: per plan, the documents and the cost
// RTKWithPlan would have returned, in docs[i] and costs[i]. The lists
// are written into memory the caller provides: docs[i] comes in as an
// empty slice and plan i's list is appended to it, so a caller that
// hands out disjoint ranges of one slab with capacity k each —
// slab[i*k : i*k : (i+1)*k] — gets every list in place and this call
// allocates none of them (a nil docs[i] gets a new list). A federated
// search builds one plan per query term and sends each party the plans
// it still needs; plans are read-only here, so concurrent calls sharing
// them are safe. It is all or nothing — an error from the owner or from
// any reply leaves docs all nil — and every reply of the exchange is
// released before it returns, recovered or not.
//
//csfltr:deterministic
func RTKWithPlans(plans []*Plan, owner OwnerAPI, k int, docs [][]DocCount, costs []Cost) error {
	sc := rtkScratchPool.Get().(*rtkScratch)
	defer rtkScratchPool.Put(sc)
	return sc.rtkWithPlans(plans, owner, k, docs, costs)
}

func (sc *rtkScratch) rtkWithPlans(plans []*Plan, owner OwnerAPI, k int, docs [][]DocCount, costs []Cost) error {
	if k <= 0 {
		clear(docs)
		return fmt.Errorf("%w: k=%d", ErrBadParams, k)
	}
	sc.queries, sc.replies = sc.queries[:0], sc.replies[:0]
	for i, plan := range plans {
		sc.queries = append(sc.queries, &plan.query)
		sc.replies = append(sc.replies, nil)
		costs[i].BytesSent = plan.query.WireSize()
	}
	// The answers are this call's alone and are not needed once the
	// candidates are recovered from them into docs.
	defer func() {
		for i, resp := range sc.replies {
			resp.Release()
			sc.queries[i], sc.replies[i] = nil, nil // the scratch pins no one's query
		}
	}()
	if err := AnswerRTKs(owner, sc.queries, sc.replies); err != nil {
		clear(docs)
		return err
	}
	for i, plan := range plans {
		var err error
		if docs[i], err = sc.recover(plan, sc.replies[i], k, &costs[i], docs[i][:0]); err != nil {
			clear(docs)
			return err
		}
	}
	return nil
}

// recover is the querier side of Algorithm 5 for one reply: it checks
// the reply, accounts it in cost and returns the plan's top k, appended
// to best.
func (sc *rtkScratch) recover(plan *Plan, resp *RTKResponse, k int, cost *Cost, best []DocCount) ([]DocCount, error) {
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

	// Walk the private rows only — decoy rows address unrelated cells and
	// would pollute the intersection — one window of 64 ids at a time.
	// Every cell ascends, so a round starts at the smallest id any row has
	// left, b, and each row scatters its entries with ids in [b, b+64)
	// into the window: one z1-wide slot per id, in PV order and zero where
	// the document is absent (the zero-fill estimator's input as it
	// stands), a presence bit per row and a count per slot. The round then
	// visits the ids present in ascending order and clears each slot after
	// use; the next round starts at the smallest id left, so gaps between
	// ids cost nothing.
	z1 := len(priv.PV)
	sc.size(z1)
	b := noID
	for i, a := range priv.PV {
		sc.rows[i] = rtkRow{ids: resp.Cells[a].IDs, vals: resp.Cells[a].Values}
		if ids := sc.rows[i].ids; len(ids) > 0 {
			b = min(b, int64(ids[0]))
		}
	}
	// Zero-fill's zeros alone bound a Count Sketch median. A document
	// absent from more than half the private rows has more than half its
	// signed values at zero, so its median is at most 0 — at most floor,
	// once floor >= 0 — and it cannot enter, whatever its values are. A
	// NaN can put any value in the median's place, so in a window holding
	// one the values decide.
	countBound := plan.params.Estimator == EstimatorZeroFill && plan.params.SketchKind == sketch.Count
	// best holds the at most k best candidates so far, in result order.
	// Once it holds k, a candidate enters only with an estimate above
	// floor, the k-th count: ids arrive ascending, so a tie loses. Until
	// then floor is NaN, which nothing compares to.
	floor := math.NaN()
	for b != noID {
		present, next, nan := sc.scatter(b, z1)
		bounded := countBound && !nan
		for ; present != 0; present &= present - 1 {
			s := bits.TrailingZeros64(present)
			slot, n := sc.slots[s*z1:(s+1)*z1], sc.count[s]
			sc.count[s] = 0
			if n >= threshold && !(bounded && floor >= 0 && 2*(z1-n) > z1) {
				if est, ok := sc.estimate(plan, slot, s, floor); ok {
					best = keepTop(best, DocCount{DocID: int(b) + s, Count: est}, k)
					if len(best) == k {
						floor = best[k-1].Count
					}
				}
			}
			clear(slot)
		}
		b = next
	}
	for i := range sc.rows {
		sc.rows[i] = rtkRow{} // the scratch must not outlive the response's rows
	}
	return best, nil
}

// scatter writes every private row's entries with ids in [b, b+64) into
// the window, returning the slots it filled as a mask, the smallest id
// left after the window (noID if none) and whether it wrote a NaN.
func (sc *rtkScratch) scatter(b int64, z1 int) (present uint64, next int64, nan bool) {
	end, next := b+window, noID
	slots, count := sc.slots, &sc.count
	for i := range sc.rows {
		r := &sc.rows[i]
		ids := r.ids
		if len(ids) > 0 && int64(ids[0]) >= end { // nothing in this window
			next = min(next, int64(ids[0]))
			r.mask = 0
			continue
		}
		vals := r.vals[:len(ids)]
		var mask uint64
		p := 0
		for ; p < len(ids) && int64(ids[p]) < end; p++ {
			s := int(int64(ids[p])-b) & (window - 1)
			v := vals[p]
			slots[s*z1+i] = v
			mask |= 1 << s
			count[s]++
			if v != v {
				nan = true
			}
		}
		r.ids, r.vals = ids[p:], vals[p:]
		if p < len(ids) {
			next = min(next, int64(ids[p]))
		}
		r.mask = mask
		present |= mask
	}
	return present, next, nan
}

// estimate returns the estimate of the candidate in window slot s, or
// false when its median provably cannot beat floor. It may consume slot
// as scratch.
func (sc *rtkScratch) estimate(plan *Plan, slot []float64, s int, floor float64) (float64, bool) {
	// Zero-fill estimates over ALL private rows, treating rows where the
	// document was evicted from the heap as zeros. An absent entry means
	// the document's cell value fell below the heap floor; scoring only the
	// rows where it survived would bias borderline documents upward (they
	// survive exactly where collision noise inflated them) and let weak
	// candidates outrank true top-K members.
	signs, vals := plan.signs, slot
	if plan.params.Estimator != EstimatorZeroFill {
		signs, vals = sc.signs[:0], sc.vals[:0]
		for i, r := range sc.rows {
			if r.mask>>s&1 != 0 {
				signs, vals = append(signs, plan.signs[i]), append(vals, slot[i])
			}
		}
	}
	if plan.params.SketchKind == sketch.Count && medianAtMost(signs, vals, floor) {
		return 0, false // cannot enter: no need to sort for its median
	}
	return sketch.EstimateSigned(plan.params.SketchKind, signs, vals), true
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
// ascending (the canonical order every producer emits and the window
// scatter in RTKWithPlan relies on; it also rejects a document listed
// twice in one row). Responses cross transports, so a faulty or hostile remote party
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

// rtkRow is one private row of the reply being recovered: its entries
// not yet scattered, and which slots of the current window it filled.
type rtkRow struct {
	ids  []int32
	vals []float64
	mask uint64
}

// rtkScratch is the per-call working memory of RTKWithPlans, pooled so
// an exchange allocates none of it: the private rows; the window, 64
// z1-wide slots kept zero between uses, and the rows present per slot;
// one candidate's present rows with their signs for the present-rows
// estimator; and the list RTKWithPlan recovers into before it copies
// out the result its caller keeps.
type rtkScratch struct {
	rows       []rtkRow
	slots      []float64
	count      [window]int
	signs      []float64
	vals       []float64
	candidates []DocCount
	// One exchange's queries and the replies it holds until recovery ends.
	queries []*TFQuery
	replies []*RTKResponse
}

var rtkScratchPool = sync.Pool{New: func() any { return new(rtkScratch) }}

func (sc *rtkScratch) size(z1 int) {
	if cap(sc.rows) < z1 {
		sc.rows, sc.slots = make([]rtkRow, z1), make([]float64, window*z1)
		sc.signs, sc.vals = make([]float64, z1), make([]float64, z1)
	}
	sc.rows, sc.slots = sc.rows[:z1], sc.slots[:window*z1]
	sc.signs, sc.vals = sc.signs[:z1], sc.vals[:z1]
}

const (
	// window is the number of consecutive ids one recovery round covers:
	// the bits of a presence mask.
	window = 64
	// noID stands for "no id left"; wider than any DocID.
	noID = int64(math.MaxInt64)
)

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
