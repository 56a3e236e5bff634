package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// table1NDCG10 is the part of `expbench -exp table1 -json`'s report the
// ordering check reads: nDCG@10 of each Table I method, the party-local
// ones averaged over the parties.
type table1NDCG10 struct {
	Results struct {
		Table1 struct {
			Local, LocalPlus struct {
				Average struct{ NDCG10 float64 }
			}
			Global, CSFLTR struct{ NDCG10 float64 }
		} `json:"table1"`
	} `json:"results"`
}

// TestTable1Ordering is Table I's shape as a gate, over the JSON report of
// `expbench -exp table1 -scale test -json` at fixed seeds 1-6: on
// nDCG@10, CS-F-LTR scores at least the better of Local+ and Global, and
// Local+ at least Local. Every seed of the set is checked; none is
// dropped. The margins each seed read, cs - max(local+, global) and
// local+ - local, the same with RTK-Sketch cells topped up with zeros
// and zero-free:
//
//	seed  cs margin  local+ margin
//	1     0.0983     0.0323
//	2     0.0484     0.0570
//	3     0.0438     0.0175
//	4     0.1147     0.0431
//	5     0.0510     0.0442
//	6     0.0168     0.0266
func TestTable1Ordering(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(1); seed <= 6; seed++ {
		path := filepath.Join(dir, fmt.Sprintf("table1-%d.json", seed))
		if err := run("table1", "test", "", path, seed, false, ""); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep table1NDCG10
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := rep.Results.Table1
		local, plus := r.Local.Average.NDCG10, r.LocalPlus.Average.NDCG10
		global, cs := r.Global.NDCG10, r.CSFLTR.NDCG10
		t.Logf("seed %d: cs-f-ltr %.4f, local+ %.4f, global %.4f, local %.4f; margins %.4f, %.4f",
			seed, cs, plus, global, local, cs-max(plus, global), plus-local)
		if cs < max(plus, global) {
			t.Errorf("seed %d: CS-F-LTR nDCG@10 %.4f is below max(Local+ %.4f, Global %.4f)", seed, cs, plus, global)
		}
		if plus < local {
			t.Errorf("seed %d: Local+ nDCG@10 %.4f is below Local %.4f", seed, plus, local)
		}
	}
}
