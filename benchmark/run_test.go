package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestDeterminism: the same seed gives byte-identical op lists and the
// same result digest over two whole runs (which also proves the count
// metrics of the three passes identical, or the runs would be incorrect);
// another seed gives another digest.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var lists [2]string
			for i := range lists {
				top, ops, _, err := setUp(w, 7, 12, scaleTest, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				top.close()
				lists[i] = fmt.Sprintf("%v", ops)
			}
			if lists[0] != lists[1] {
				t.Fatal("two set-ups with the same seed planned different op lists")
			}
			a := mustRun(t, w, 7)
			b := mustRun(t, w, 7)
			c := mustRun(t, w, 8)
			if a.digest != b.digest {
				t.Errorf("same seed, digests %s and %s", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 share the digest %s", a.digest)
			}
			for i, m := range a.metrics {
				switch m.name {
				case "wire_kb_per_op", "epsilon_per_op", "cover_rate", "ndcg10":
					if m.value != b.metrics[i].value {
						t.Errorf("%s: %v then %v with the same seed", m.name, m.value, b.metrics[i].value)
					}
				}
			}
		})
	}
}

func mustRun(t *testing.T, w *workload, seed int64) *report {
	t.Helper()
	rep, err := runEndToEnd(w, seed, 12, scaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("run is not clean: correct=%v failed=%d attempted=%d notes=%v", rep.correct, rep.failed, rep.attempted, rep.notes)
	}
	return rep
}

// exactAnswers runs a workload's op list on a noise-free variant of its
// topology and returns every ranking.
func exactAnswers(t *testing.T, w *workload, change func(*topoConfig)) [][]hit {
	t.Helper()
	n := w.ops(scaleTest, 12)
	cfg := w.config(scaleTest, n)
	cfg.epsilon = 0
	change(&cfg)
	top, err := buildTopology(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	var out [][]hit
	for i, o := range w.plan(top, n) {
		a, err := w.run(top, &o)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		out = append(out, a.search.hits)
	}
	return out
}

// TestGatewayMatchesInProcess: without noise, the HTTP topology of
// gateway_zipf answers exactly what an in-process Federation.Search over
// the same parties answers.
func TestGatewayMatchesInProcess(t *testing.T) {
	w := workloadByName("gateway_zipf")
	remote := exactAnswers(t, w, func(*topoConfig) {})
	inproc := workloadByName("search_cold")
	local := exactAnswers(t, &workload{opsAt12: w.opsAt12, config: w.config, plan: w.plan, run: inproc.run},
		func(c *topoConfig) { c.http = false })
	if !reflect.DeepEqual(remote, local) {
		t.Fatalf("gateway answers differ from in-process answers:\n%v\n%v", remote, local)
	}
}

// TestShardedMatchesUnsharded: without noise, the 4 x 2 sharded topology
// of ingest_churn answers exactly what an unsharded twin answers after
// the same sequence of adds and removes.
func TestShardedMatchesUnsharded(t *testing.T) {
	w := workloadByName("ingest_churn")
	sharded := exactAnswers(t, w, func(*topoConfig) {})
	single := exactAnswers(t, w, func(c *topoConfig) { c.shards, c.replicas = 0, 0 })
	if !reflect.DeepEqual(sharded, single) {
		t.Fatalf("sharded answers differ from the unsharded twin's:\n%v\n%v", sharded, single)
	}
}

// TestNothingSurvivesARun: after a run (runEndToEnd and runTraced fail on
// a surviving goroutine themselves) no listener of the HTTP topology
// still accepts connections.
func TestNothingSurvivesARun(t *testing.T) {
	w := workloadByName("gateway_zipf")
	top, _, _, err := setUp(w, 3, 12, scaleTest, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.newLadder(3); err != nil {
		t.Fatal(err)
	}
	addrs := top.addrs
	if want := top.cfg.dataParties + 2; len(addrs) != want {
		t.Fatalf("gateway topology with ladder serves %d listeners, want %d (parties, gateway, ladder host)", len(addrs), want)
	}
	base := leakBaseline()
	top.close()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections after close", a)
		}
	}
	if stacks := leaked(base); len(stacks) > 0 {
		t.Errorf("%d goroutines appeared during close and stayed, first:\n%s", len(stacks), stacks[0])
	}
}

// TestContract: BENCHMARK.json names exactly the workloads and metrics
// the binary prints, with the same units; the traced run writes its
// Chrome trace.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []entry
	for _, w := range workloads {
		names = append(names, entry{Name: w.name})
	}
	if !reflect.DeepEqual(spec.Workloads, names) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", spec.Workloads, names)
	}
	printed := func(rep *report) []entry {
		var out []entry
		for _, m := range rep.metrics {
			out = append(out, entry{m.name, m.unit})
		}
		return out
	}
	out := t.TempDir()
	for _, w := range workloads {
		if got := printed(mustRun(t, w, 2)); !reflect.DeepEqual(got, spec.EndToEnd) {
			t.Errorf("%s prints end-to-end metrics %v, BENCHMARK.json lists %v", w.name, got, spec.EndToEnd)
		}
		rep, err := runTraced(w, 2, 12, scaleTest, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if got := printed(rep); !reflect.DeepEqual(got, spec.PerLayer) {
			t.Errorf("%s prints per-layer metrics %v, BENCHMARK.json lists %v", w.name, got, spec.PerLayer)
		}
		trace, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string
				Dur  float64
			}
		}
		if err := json.Unmarshal(trace, &doc); err != nil || len(doc.TraceEvents) < 100 {
			t.Errorf("%s: Chrome trace has %d events, err %v", w.name, len(doc.TraceEvents), err)
		}
	}
}
