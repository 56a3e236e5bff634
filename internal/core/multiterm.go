package core

import (
	"fmt"

	"csfltr/internal/sketch"
)

// MultiTFQuery is the public part of a whole-query TF lookup: one
// obfuscated column vector per query term, sharing a single private index
// set. Section IV-C (Theorem 3) analyses exactly this estimator:
// f_q = median_{a in PV} sum_k C~(a, h_a(t_k)).
type MultiTFQuery struct {
	PerTerm []TFQuery
}

// WireSize returns the encoded size in bytes.
func (q *MultiTFQuery) WireSize() int64 {
	var n int64
	for i := range q.PerTerm {
		n += q.PerTerm[i].WireSize()
	}
	return n
}

// MultiTFPrivate is the querier-side recovery state for a multi-term
// query.
type MultiTFPrivate struct {
	Terms []uint64
	PV    []int
}

// MultiTFResponse carries the owner's perturbed lookups, one value per
// (term, row).
type MultiTFResponse struct {
	PerTerm []TFResponse
}

// WireSize returns the encoded size in bytes.
func (r *MultiTFResponse) WireSize() int64 {
	var n int64
	for i := range r.PerTerm {
		n += r.PerTerm[i].WireSize()
	}
	return n
}

// BuildMultiQuery obfuscates a whole query's terms with one shared
// private index set, so the per-row sums the owner cannot compute (it
// does not know PV) can be formed by the querier after recovery.
func (q *Querier) BuildMultiQuery(terms []uint64) (*MultiTFQuery, *MultiTFPrivate) {
	q.mu.Lock()
	defer q.mu.Unlock()
	z := q.params.Z
	perm := q.rng.Perm(z)
	pv := append([]int(nil), perm[:q.params.Z1]...)
	sortInts(pv)
	inPV := make([]bool, z)
	for _, a := range pv {
		inPV[a] = true
	}
	out := &MultiTFQuery{PerTerm: make([]TFQuery, len(terms))}
	for ti, term := range terms {
		cols := make([]uint32, z)
		for a := 0; a < z; a++ {
			if inPV[a] {
				cols[a] = q.fam.Index(a, term)
			} else {
				cols[a] = q.fam.Index(a, q.rng.Uint64())
			}
		}
		out.PerTerm[ti] = TFQuery{Cols: cols}
	}
	return out, &MultiTFPrivate{Terms: append([]uint64(nil), terms...), PV: pv}
}

// AnswerMultiTF answers a multi-term TF query against one document: each
// term's columns are looked up and the whole response is perturbed with a
// single noise draw per term vector (each term's lookup is one Algorithm-2
// interaction).
func (o *Owner) AnswerMultiTF(docID int, q *MultiTFQuery) (*MultiTFResponse, error) {
	if q == nil || len(q.PerTerm) == 0 {
		return nil, fmt.Errorf("%w: empty multi-term query", ErrBadQuery)
	}
	out := &MultiTFResponse{PerTerm: make([]TFResponse, len(q.PerTerm))}
	for i := range q.PerTerm {
		resp, err := o.AnswerTF(docID, &q.PerTerm[i])
		if err != nil {
			return nil, err
		}
		out.PerTerm[i] = TFResponse{Values: resp.Values} // keeps the values; the lease lapses
	}
	return out, nil
}

// RecoverSum combines a multi-term response into the estimate of the
// summed count of all query terms in the document, using Theorem 3's
// estimator: per private row, sum the sign-corrected per-term values,
// then take the median across rows (min for Count-Min).
func (q *Querier) RecoverSum(priv *MultiTFPrivate, resp *MultiTFResponse) (float64, error) {
	if resp == nil || len(resp.PerTerm) != len(priv.Terms) {
		return 0, fmt.Errorf("%w: response has %d term vectors, want %d",
			ErrBadQuery, multiLen(resp), len(priv.Terms))
	}
	rowSums := make([]float64, len(priv.PV))
	for ti, term := range priv.Terms {
		values := resp.PerTerm[ti].Values
		if len(values) != q.params.Z {
			return 0, fmt.Errorf("%w: term %d has %d values, want %d",
				ErrBadQuery, ti, len(values), q.params.Z)
		}
		for i, a := range priv.PV {
			v := values[a]
			if q.params.SketchKind == sketch.Count {
				v *= float64(q.fam.Sign(a, term))
			}
			rowSums[i] += v
		}
	}
	if q.params.SketchKind == sketch.CountMin {
		min := rowSums[0]
		for _, v := range rowSums[1:] {
			if v < min {
				min = v
			}
		}
		return min, nil
	}
	// rowSums is locally owned scratch, so the in-place selection avoids
	// Median's defensive copy.
	return sketch.MedianInPlace(rowSums), nil
}

func multiLen(r *MultiTFResponse) int {
	if r == nil {
		return 0
	}
	return len(r.PerTerm)
}
