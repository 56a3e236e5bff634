package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"
)

// ladderSample is how many ops the traced run dissects.
const ladderSample = 64

// churnRungDocs is how many spare documents the add/remove rungs move.
const churnRungDocs = 8

// The per-layer metrics, in report order; BENCHMARK.json lists the same
// names and units (a test compares the two). The layer is the part of
// the name before the dot.
var perLayer = []struct{ name, unit string }{
	{"core.plan_us", "us"},
	{"core.answer_rtk_us", "us"},
	{"core.rtk_recover_us", "us"},
	{"core.allocs_per_rtk", "count"},
	{"core.build_query_us", "us"},
	{"core.answer_tf_us", "us"},
	{"core.recover_us", "us"},
	{"core.rtk_calls_per_op", "count"},
	{"core.tf_calls_per_op", "count"},
	{"core.add_us_per_doc", "us"},
	{"core.remove_us", "us"},
	{"shard.answer_rtk_us", "us"},
	{"shard.scatter_ratio", "ratio"},
	{"shard.add_us_per_doc", "us"},
	{"shard.remove_us", "us"},
	{"wire.encode_rtk_us", "us"},
	{"wire.decode_rtk_us", "us"},
	{"wire.rtk_frame_kb", "kB"},
	{"federation.relay_us", "us"},
	{"federation.http_rtk_us", "us"},
	{"federation.http_socket_kb_per_op", "kB"},
	{"federation.search_self_us", "us"},
	{"federation.gateway_us", "us"},
	{"federation.cross_tf_us", "us"},
	{"federation.retries_per_op", "count"},
	{"qcache.query_hit_ratio", "ratio"},
	{"qcache.task_hit_ratio", "ratio"},
	{"qcache.evictions_per_op", "count"},
	{"qcache.bytes", "B"},
	{"dp.spends_per_op", "count"},
	{"dp.replays_per_op", "count"},
	{"features.vector_us", "us"},
	{"ltr.round_robin_ms_per_round", "ms"},
	{"ltr.evaluate_ms", "ms"},
	{"secagg.round_ms", "ms"},
	{"secagg.mask_us", "us"},
	{"secagg.masked_bytes_per_round", "B"},
	{"secagg.ndcg10", "ratio"},
	{"keyex.agree_pairwise_ms", "ms"},
	{"keyex.federation_secret_ms", "ms"},
	{"corpus.generate_s", "s"},
	{"telemetry.trace_overhead_ratio", "ratio"},
	{"layers.sum_ratio", "ratio"},
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// runTraced is the traced run. After set-up and a warm-up replay it
// replays the op list once under op spans, counting what the product
// accounts; then it dissects a seed-chosen sample of ops through the
// outside-in ladder: the same op replayed through successively deeper
// public entry points, each call under a benchmark-side span, so that a
// layer's self time is one rung minus the next. It reports the per-layer
// metrics and writes the spans as a Chrome trace. No end-to-end number
// is taken here.
func runTraced(w *workload, seed int64, seconds int, sc scale, outDir string) (*report, error) {
	baseline := leakBaseline()
	t, ops, _, err := setUp(w, seed, seconds, sc, true, nil)
	if err != nil {
		return nil, err
	}
	defer t.close()
	n := len(ops)
	tr := newTracer()
	answers := make([]*answer, n)
	replay(t, w, ops, answers, nil)
	runtime.GC()
	counted := replay(t, w, ops, answers, tr)
	tr.op = -1

	l, err := t.newLadder(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sample := rng.Perm(n)
	if len(sample) > ladderSample {
		sample = sample[:ladderSample]
	}
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	var (
		rtk                                 rtkRung
		tf                                  tfRung
		search, plans, routed               time.Duration
		gwIn, gwPost                        time.Duration
		opWall, augParts                    time.Duration
		vector                              time.Duration
		vectors, rtkCalls, tfCalls, retries int
		searchTimes, tracedTimes            []float64
		data                                = make(map[string][]instance)
	)
	// One rung at a time over the whole sample, not one op at a time over
	// every rung: back-to-back replays keep caches and heap as they are
	// inside a pass, so a rung's time can be held against the op's.
	rung := func(name string, fn func(i int, o *op, terms []uint64) error) error {
		for _, i := range sample {
			tr.op = i
			sp := tr.enter(name)
			err := fn(i, &ops[i], ops[i].query.terms)
			tr.leave(sp)
			if err != nil {
				return fmt.Errorf("%s of op %d: %w", name, i, err)
			}
		}
		return nil
	}
	calls := make(map[int]int) // routed reverse top-K calls of each sampled search
	err = rung("ladder.search", func(i int, _ *op, terms []uint64) error {
		d, err := l.searchFlat(terms, tr)
		opWall += time.Duration(counted.opMicros[i] * 1e3)
		search += d
		searchTimes = append(searchTimes, micros(d))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rung("ladder.search.tracing_on", func(_ int, _ *op, terms []uint64) error {
		d, err := l.searchTraced(terms, tr)
		tracedTimes = append(tracedTimes, micros(d))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rung("ladder.search.parts", func(i int, _ *op, terms []uint64) error {
		p, r, c, err := l.searchParts(terms, tr)
		plans += p
		routed += r
		calls[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rung("ladder.rtk", func(_ int, _ *op, terms []uint64) error {
		r, err := l.rtk(terms[0], mallocs, tr)
		rtk.add(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rung("ladder.tf", func(_ int, _ *op, terms []uint64) error {
		f, err := l.tf(rng.Intn(t.cfg.docs), terms[0], tr)
		tf.add(f)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = rung("ladder.gateway", func(_ int, _ *op, terms []uint64) error {
		in, post, err := l.gatewayRung(terms, tr)
		gwIn += in
		gwPost += post
		return err
	})
	if err != nil {
		return nil, err
	}
	// The augmentation replay: the op itself on augment_train, the same
	// pipeline run from the querier on the search workloads.
	err = rung("ladder.augment", func(i int, o *op, terms []uint64) error {
		src := 0
		if !t.cfg.querier {
			src = o.party
		}
		first := len(tr.spans)
		aug, err := t.augment(l.flat, src, terms, tr)
		if err != nil {
			return err
		}
		for _, sp := range tr.spans[first:] {
			augParts += sp.end.Sub(sp.start)
			if sp.name == "features.vector" {
				vector += sp.end.Sub(sp.start)
				vectors++
			}
		}
		tfCalls += aug.tfCalls
		if answers[i] != nil && answers[i].aug != nil {
			rtkCalls += len(aug.lists)
		} else {
			rtkCalls += calls[i]
		}
		ref := o.query.ref
		for _, vec := range aug.vectors {
			data[t.names[src]] = append(data[t.names[src]], instance{Features: vec, Label: 1,
				QueryKey: ref.key()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tr.op = -1
	churn, err := l.churnRung(churnRungDocs, tr)
	if err != nil {
		return nil, fmt.Errorf("churn rungs: %w", err)
	}
	if !t.cfg.querier {
		for p := 0; p < t.cfg.dataParties; p++ {
			data[t.names[p]] = append(t.localData(p, seed), data[t.names[p]]...)
		}
	}
	sp := tr.begin("ladder.train")
	train, err := t.train(l.flat, data, t.testData(seed), seed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("train tail: %w", err)
	}
	mask, err := maskOnce(len(t.names), seed)
	if err != nil {
		return nil, err
	}
	for _, a := range answers {
		if a != nil && a.search != nil {
			retries += a.search.retries
		}
	}

	k := float64(len(sample))
	per := func(d time.Duration) float64 { return micros(d) / k }
	searchSelf := search - routed - plans
	// Search ops sum the search ladder's self times (plans + routed +
	// searchSelf, which is the search rung again), augmentation ops the
	// spans of their public calls; either sum is held against the wall
	// time the same ops took inside the counted pass.
	layerSum := search
	if !t.cfg.querier {
		layerSum = augParts
	}
	values := map[string]float64{
		"core.plan_us":                     per(rtk.plan),
		"core.answer_rtk_us":               per(rtk.answer),
		"core.rtk_recover_us":              per(rtk.withPlan - rtk.answer),
		"core.allocs_per_rtk":              float64(rtk.allocs) / k,
		"core.build_query_us":              per(tf.build),
		"core.answer_tf_us":                per(tf.answer),
		"core.recover_us":                  per(tf.recover),
		"core.rtk_calls_per_op":            float64(rtkCalls) / k,
		"core.tf_calls_per_op":             float64(tfCalls) / k,
		"core.add_us_per_doc":              micros(churn.coreAdd) / churnRungDocs,
		"core.remove_us":                   micros(churn.coreRemove) / churnRungDocs,
		"shard.answer_rtk_us":              per(rtk.shardedRTK),
		"shard.scatter_ratio":              float64(rtk.shardedRTK) / float64(rtk.answer),
		"shard.add_us_per_doc":             micros(churn.shardAdd) / churnRungDocs,
		"shard.remove_us":                  micros(churn.shardRemove) / churnRungDocs,
		"wire.encode_rtk_us":               per(rtk.encode),
		"wire.decode_rtk_us":               per(rtk.decode),
		"wire.rtk_frame_kb":                float64(rtk.frameBytes) / 1024 / k,
		"federation.relay_us":              per(rtk.relayed - rtk.answer),
		"federation.http_rtk_us":           per(rtk.overHTTP - rtk.answer),
		"federation.http_socket_kb_per_op": float64(counted.delta.socket) / 1024 / float64(n),
		"federation.search_self_us":        per(searchSelf),
		"federation.gateway_us":            per(gwPost - gwIn),
		"federation.cross_tf_us":           per(tf.crossTF - tf.build - tf.answer - tf.recover),
		"federation.retries_per_op":        float64(retries+train.retries) / float64(n),
		"qcache.query_hit_ratio":           ratio(counted.delta.queryHits, int64(n)),
		"qcache.task_hit_ratio":            ratio(counted.delta.taskHits, counted.delta.taskHits+counted.delta.taskMiss),
		"qcache.evictions_per_op":          float64(counted.delta.evictions) / float64(n),
		"qcache.bytes":                     float64(counted.delta.cacheBytes),
		"dp.spends_per_op":                 counted.delta.epsilon / epsilon / float64(n),
		"dp.replays_per_op":                float64(counted.delta.replays) / float64(n),
		"features.vector_us":               micros(vector) / float64(max(vectors, 1)),
		"ltr.round_robin_ms_per_round":     millis(train.roundRobin) / trainRounds,
		"ltr.evaluate_ms":                  millis(train.evaluate),
		"secagg.round_ms":                  millis(train.secureRound),
		"secagg.mask_us":                   micros(mask),
		"secagg.masked_bytes_per_round":    float64(train.maskedBytes) / trainRounds,
		"secagg.ndcg10":                    train.ndcgSecure,
		"keyex.agree_pairwise_ms":          millis(train.ceremony),
		"keyex.federation_secret_ms":       millis(t.setup.secret),
		"corpus.generate_s":                t.setup.generate.Seconds(),
		"telemetry.trace_overhead_ratio":   median(tracedTimes) / median(searchTimes),
		"layers.sum_ratio":                 float64(layerSum) / float64(opWall),
	}
	rep := &report{workload: w.name, correct: true, attempted: n, failed: counted.failed}
	for _, m := range perLayer {
		rep.add(m.name, m.unit, values[m.name])
	}
	if rep.failed > 0 {
		rep.fail("%d of %d ops failed", rep.failed, rep.attempted)
	}
	path := filepath.Join(outDir, w.name+".trace.json")
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	self := tr.selfMicros()
	total := tr.totals()
	rep.notes = append(rep.notes,
		fmt.Sprintf("sampled_ops=%d spans=%d trace=%s", len(sample), len(tr.spans), path),
		fmt.Sprintf("op_wall_us=%.1f search_rung_us=%.1f augment_rung_us=%.1f (means over the sample)",
			per(opWall), per(search), total["ladder.augment"]/k),
		fmt.Sprintf("glue_self_us: ladder.search.parts=%.1f ladder.augment=%.1f (per sampled op: rung time no span below covers)",
			self["ladder.search.parts"]/k, self["ladder.augment"]/k))

	t.close()
	if stacks := leaked(baseline); len(stacks) > 0 {
		return nil, fmt.Errorf("%d goroutines outlived the run, first:\n%s", len(stacks), stacks[0])
	}
	return rep, nil
}
