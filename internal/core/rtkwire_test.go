package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"csfltr/internal/core"
	"csfltr/internal/dp"
	"csfltr/internal/shard"
	"csfltr/internal/wire"
)

// TestCarriedSizeMatchesFrame: every producer of an RTK reply — a
// single owner, the 4 x 2 shard facade's merge, the decoder — records
// in it the length of its version 2 payload, and that length is the
// frame's less its header and what a walk over the same cells measures.
// Without noise and with it; a sketch pushes every document into every
// cell, so the corpus sizes give cells that are empty, hold one
// document, are under capacity and have evicted down to it.
func TestCarriedSizeMatchesFrame(t *testing.T) {
	var empty, single, partial, full int
	for _, eps := range []float64{0, 0.5} {
		for _, docs := range []int{0, 1, 5, 80} {
			p := core.DefaultParams()
			p.Z, p.Z1, p.W, p.K, p.Alpha, p.Epsilon = 8, 3, 64, 4, 2, eps
			mech := func(seed int64) dp.Mechanism {
				m, err := dp.ForEpsilon(eps, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			owner, err := core.NewOwner(p, 42, mech(1))
			if err != nil {
				t.Fatal(err)
			}
			sharded := p
			sharded.Shards, sharded.Replicas = 4, 2
			group, err := shard.New(shard.Config{Params: sharded, Seed: 42, Mech: mech(2), BlockSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < docs; i++ {
				counts := map[uint64]int64{1: int64(1 + i%5), uint64(100 + i%20): 2, uint64(1000 + i): int64(1 + i%3)}
				for _, o := range []interface {
					AddDocument(int, map[uint64]int64) error
				}{owner, group} {
					if err := o.AddDocument(3*i, counts); err != nil {
						t.Fatal(err)
					}
				}
			}
			querier, err := core.NewQuerier(p, 42, rand.New(rand.NewSource(9)))
			if err != nil {
				t.Fatal(err)
			}

			check := func(who string, resp *core.RTKResponse) {
				t.Helper()
				who = fmt.Sprintf("eps=%v, %d documents: the %s reply", eps, docs, who)
				carried := resp.CarriedLen()
				if carried == 0 {
					t.Fatalf("%s carries no length", who)
				}
				frame := wire.AppendRTKResponse(nil, resp)
				if frame[0] != wire.VersionRTK || wire.PackedSize(carried) != int64(len(frame)) {
					t.Fatalf("%s carries length %d; its version %d frame is %d bytes, header included",
						who, carried, frame[0], len(frame))
				}
				if walked, ok := (&core.RTKResponse{Cells: resp.Cells}).PayloadLen(); !ok || walked != carried {
					t.Fatalf("%s carries length %d, a walk measures %d (%v)", who, carried, walked, ok)
				}
				if size := wire.SizeRTKResponse(resp); size != int64(len(frame)) {
					t.Fatalf("%s is sized %d, its frame is %d bytes", who, size, len(frame))
				}
				for _, c := range resp.Cells {
					switch n := len(c.IDs); {
					case n == 0:
						empty++
					case n == 1:
						single++
					case n < p.HeapCap():
						partial++
					default:
						full++
					}
				}
			}
			for _, term := range []uint64{1, 100, 107, 119, 1000, 1004, 1079, 5, 77777} {
				q := querier.Plan(term).Query()
				for who, api := range map[string]core.OwnerAPI{"owner's": owner, "shard group's": group} {
					resp, err := api.AnswerRTK(q)
					if err != nil {
						t.Fatal(err)
					}
					check(who, resp)
					decoded, err := wire.DecodeRTKResponse(wire.AppendRTKResponse(nil, resp))
					if err != nil {
						t.Fatal(err)
					}
					check("decoded "+who, decoded)
				}
			}
		}
	}
	if empty == 0 || single == 0 || partial == 0 || full == 0 {
		t.Fatalf("not every kind of cell was seen: %d empty, %d of one document, %d under capacity, %d at capacity",
			empty, single, partial, full)
	}
}

// TestUnsizedRepliesAreMeasured: what the producers' arithmetic does not
// cover — a count outside the presence table's window, a noise draw so
// large that distinct counts release the same value — leaves the reply
// without a carried length. It is then measured, framed as version 2
// through the general dictionary, and every value survives bit for bit.
// Both producers are held to it: an owner, and the shard facade's merge
// of two noise-free owners' parts, each releasing with the same draw.
func TestUnsizedRepliesAreMeasured(t *testing.T) {
	p := core.DefaultParams()
	p.Z, p.Z1, p.W, p.K, p.Alpha = 8, 3, 64, 4, 2
	newOwner := func(mech dp.Mechanism) *core.Owner {
		o, err := core.NewOwner(p, 42, mech)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	for name, c := range map[string]struct {
		count int64
		noise float64
	}{
		"count past the window":  {5000, 0.25},
		"count below the window": {-5000, 0.25},
		"noise swallows counts":  {3, 1 << 60},
	} {
		owner := newOwner(core.FixedNoise(c.noise))
		parts := []*core.Owner{newOwner(dp.Disabled()), newOwner(dp.Disabled())}
		for i := 0; i < 6; i++ {
			doc := map[uint64]int64{7: c.count + int64(i), 9: 1}
			if err := owner.AddDocument(i, doc); err != nil {
				t.Fatal(err)
			}
			if err := parts[i%2].AddDocument(i, doc); err != nil {
				t.Fatal(err)
			}
		}
		querier, err := core.NewQuerier(p, 42, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		q := querier.Plan(7).Query()
		answer := func(o *core.Owner) *core.RTKResponse {
			resp, err := o.AnswerRTK(q)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		replies := map[string]*core.RTKResponse{
			"owner": answer(owner),
			"merge": core.MergeRTKResponses([]*core.RTKResponse{answer(parts[0]), answer(parts[1])},
				p.HeapCap(), p.AbsEvictionKeys(), core.FixedNoise(c.noise)),
		}
		for who, resp := range replies {
			if resp.CarriedLen() != 0 {
				t.Fatalf("%s, %s: the reply carries length %d", name, who, resp.CarriedLen())
			}
			frame := wire.AppendRTKResponse(nil, resp)
			if frame[0] != wire.VersionRTK || wire.SizeRTKResponse(resp) != int64(len(frame)) {
				t.Fatalf("%s, %s: version %d frame of %d bytes, sized %d", name, who, frame[0], len(frame), wire.SizeRTKResponse(resp))
			}
			got, err := wire.DecodeRTKResponse(frame)
			if err != nil {
				t.Fatal(err)
			}
			for a, cell := range resp.Cells {
				for i, v := range cell.Values {
					if got.Cells[a].IDs[i] != cell.IDs[i] || math.Float64bits(got.Cells[a].Values[i]) != math.Float64bits(v) {
						t.Fatalf("%s, %s: row %d entry %d came back (%d, %v), want (%d, %v)",
							name, who, a, i, got.Cells[a].IDs[i], got.Cells[a].Values[i], cell.IDs[i], v)
					}
				}
			}
		}
		if !reflect.DeepEqual(replies["owner"].Cells, replies["merge"].Cells) {
			t.Fatalf("%s: the merge released other values than the owner", name)
		}
	}
}
