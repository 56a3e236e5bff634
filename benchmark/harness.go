package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

const (
	setupRepeats = 3 // set-ups per run; setup_s is their median
	timedPasses  = 3 // identical timed replays of the op list
)

// metric is one named, unit-carrying number of a report.
type metric struct {
	name, unit string
	value      float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	digest    string   // hash of the first timed pass's answers
	notes     []string // why correct is false, and context lines
}

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name, unit, value})
}

func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "INCORRECT: "+fmt.Sprintf(format, args...))
}

// The end-to-end metrics, in report order; BENCHMARK.json lists the same
// names and units (a test compares the two).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "kB"},
	{"wire_kb_per_op", "kB"},
	{"epsilon_per_op", "epsilon"},
	{"peak_rss_mb", "MB"},
	{"cover_rate", "ratio"},
	{"ndcg10", "ratio"},
}

// setUp builds the workload's topology setupRepeats times — tearing the
// earlier ones down again — and plans the op list on the last. It
// returns the median set-up time at reference speed (ref gauges the
// machine around every build), or as the clock read it when ref is nil.
func setUp(w *workload, seed int64, seconds int, sc scale, traced bool, ref *reference) (*topology, []op, float64, error) {
	n := w.ops(sc, seconds)
	cfg := w.config(sc, n)
	repeats := setupRepeats
	if traced {
		// The traced run counts socket bytes and extracts features on
		// every workload; it reports no set-up time of its own.
		cfg.countSocket, cfg.stats = true, true
		repeats = 1
	}
	var (
		t      *topology
		ops    []op
		times  []float64
		before time.Duration
	)
	if ref != nil {
		before = ref.gauge()
	}
	for i := 0; i < repeats; i++ {
		if t != nil {
			t.close()
			t = nil
		}
		start := time.Now()
		var err error
		if t, err = buildTopology(cfg, seed); err != nil {
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		ops = w.plan(t, n)
		took := time.Since(start).Seconds()
		if ref != nil {
			// The gauge's collection also frees the topology closed
			// above, so every build starts from the same heap.
			after := ref.gauge()
			took *= speed(before, after)
			before = after
		}
		times = append(times, took)
	}
	if len(ops) != n {
		t.close()
		return nil, nil, 0, fmt.Errorf("set-up: planned %d ops, want %d", len(ops), n)
	}
	return t, ops, median(times), nil
}

// replay runs the op list once, timing every op, and keeps the answers.
// A non-nil tracer also gets one span per op. The caller collects garbage
// first (a gauge does), so that every pass starts from the same heap.
func replay(t *topology, w *workload, ops []op, answers []*answer, tr *tracer) pass {
	p := pass{opMicros: make([]float64, len(ops)), speed: 1}
	before := t.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, allocB, cpu := ms.Mallocs, ms.TotalAlloc, cpuTime()
	for i := range ops {
		if tr != nil {
			tr.op = i
		}
		sp := tr.begin("op." + w.name)
		start := time.Now()
		a, err := w.run(t, &ops[i])
		d := time.Since(start)
		tr.end(sp)
		p.opMicros[i] = float64(d.Nanoseconds()) / 1e3
		p.wall += d
		if err != nil {
			p.failed++
			a = nil
		}
		answers[i] = a
	}
	p.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	p.mallocs, p.allocB = ms.Mallocs-mallocs, ms.TotalAlloc-allocB
	p.delta = t.counters().since(before)
	return p
}

// runEndToEnd is the untraced run: set-up, one untimed warm-up replay,
// timedPasses identical timed replays between gauges of the machine, then
// verification of every pass's answers against exact ground truth.
func runEndToEnd(w *workload, seed int64, seconds int, sc scale) (*report, error) {
	baseline := leakBaseline()
	gaugeRuns := 16
	if sc == scaleTest {
		gaugeRuns = 2 // the tests check plumbing, not steadiness
	}
	ref := newReference(gaugeRuns)
	t, ops, setupS, err := setUp(w, seed, seconds, sc, false, ref)
	if err != nil {
		return nil, err
	}
	defer t.close()
	n := len(ops)
	answers := make([][]*answer, timedPasses)
	for i := range answers {
		answers[i] = make([]*answer, n)
	}
	replay(t, w, ops, answers[0], nil) // warm-up: caches fill, lazy set-up finishes

	rep := &report{workload: w.name, correct: true}
	passes := make([]pass, timedPasses)
	before := ref.gauge()
	for i := range passes {
		passes[i] = replay(t, w, ops, answers[i], nil)
		after := ref.gauge()
		passes[i].speed = speed(before, after)
		before = after
		if i == 0 {
			rep.digest = digest(answers[0])
		}
		rep.attempted += n
		rep.failed += passes[i].failed
	}
	rss := peakRSSMB() // before the oracle's index inflates it

	best := bestPass(passes)
	var total pass
	for i := range passes {
		p := &passes[i]
		total.mallocs += p.mallocs
		total.allocB += p.allocB
		total.delta.wireBytes += p.delta.wireBytes
		total.delta.epsilon += p.delta.epsilon
		if w.exactCounts && (p.delta.epsilon != passes[0].delta.epsilon ||
			p.delta.queryHits != passes[0].delta.queryHits || p.delta.taskHits != passes[0].delta.taskHits) {
			rep.fail("pass %d counted epsilon=%v query_hits=%d task_hits=%d, pass 0 %v/%d/%d",
				i, p.delta.epsilon, p.delta.queryHits, p.delta.taskHits,
				passes[0].delta.epsilon, passes[0].delta.queryHits, passes[0].delta.taskHits)
		}
	}
	perOp := float64(timedPasses * n)
	rep.add("setup_s", "s", setupS)
	opMicros := bestOpMicros(passes)
	var sum float64
	for _, us := range opMicros {
		sum += us
	}
	rep.add("ops_per_s", "1/s", float64(n)/(sum/1e6))
	rep.add("op_p50_ms", "ms", percentile(opMicros, 50)/1e3)
	rep.add("op_p90_ms", "ms", percentile(opMicros, 90)/1e3)
	rep.add("cpu_ms_per_op", "ms", best.cpu.Seconds()*best.speed*1e3/float64(n))
	rep.add("allocs_per_op", "count", float64(total.mallocs)/perOp)
	rep.add("alloc_kb_per_op", "kB", float64(total.allocB)/1024/perOp)
	rep.add("wire_kb_per_op", "kB", float64(total.delta.wireBytes)/1024/perOp)
	rep.add("epsilon_per_op", "epsilon", total.delta.epsilon/perOp)
	rep.add("peak_rss_mb", "MB", rss)

	q, err := verify(t, ops, answers, seed)
	if err != nil {
		return nil, err
	}
	rep.add("cover_rate", "ratio", q.cover)
	rep.add("ndcg10", "ratio", q.ndcg)
	if rep.failed > 0 {
		rep.fail("%d of %d ops failed", rep.failed, rep.attempted)
	}
	if q.cover < 0.2 || q.cover > 1 || q.ndcg <= 0 || q.ndcg > 1 || math.IsNaN(q.ndcg) {
		rep.fail("answers are far from the ground truth: cover_rate=%v ndcg10=%v", q.cover, q.ndcg)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("ops_per_pass=%d passes=%d pass_wall_s=%.2f/%.2f/%.2f as the clock read, speed factor %.3f/%.3f/%.3f",
			n, timedPasses, passes[0].wall.Seconds(), passes[1].wall.Seconds(), passes[2].wall.Seconds(),
			passes[0].speed, passes[1].speed, passes[2].speed),
		fmt.Sprintf("best pass as the clock read: ops_per_s=%.4f cpu_ms_per_op=%.4f",
			float64(n)/best.wall.Seconds(), best.cpu.Seconds()*1e3/float64(n)),
		fmt.Sprintf("full_hit_share=%.4f task_hit_share=%.4f evictions_per_pass=%d cache_bytes=%d",
			ratio(best.delta.queryHits, int64(n)), ratio(best.delta.taskHits, best.delta.taskHits+best.delta.taskMiss),
			best.delta.evictions, best.delta.cacheBytes))

	t.close()
	if stacks := leaked(baseline); len(stacks) > 0 {
		return nil, fmt.Errorf("%d goroutines outlived the run, first:\n%s", len(stacks), stacks[0])
	}
	return rep, nil
}

// bestOpMicros is, for every op of the list, the shortest of its wall
// times (at reference speed) over the identical passes: the passes do the
// same work, and interference from the shared machine only ever adds
// time. The product's own garbage collector counts as interference here
// — its cycles hit different ops in every pass — so its cost shows in
// cpu_ms_per_op and allocs_per_op, not in the op times.
func bestOpMicros(passes []pass) []float64 {
	out := make([]float64, len(passes[0].opMicros))
	for i := range out {
		out[i] = passes[0].opMicros[i] * passes[0].speed
		for _, p := range passes[1:] {
			if t := p.opMicros[i] * p.speed; t < out[i] {
				out[i] = t
			}
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quality is what verification measured on the timed passes' answers.
type quality struct{ cover, ndcg float64 }

// verify checks the answers of every timed pass against exact ground
// truth. Search answers are scored as rankings; augment_train's reverse
// top-K lists are scored for cover rate, and the instances of its last
// pass train the model whose held-out nDCG@10 is reported.
func verify(t *topology, ops []op, passes [][]*answer, seed int64) (quality, error) {
	or := newOracle(t)
	var cover, ndcg mean
	data := make(map[string][]instance)
	for pi, answers := range passes {
		for i, a := range answers {
			if a == nil {
				continue
			}
			o := &ops[i]
			pr := present{base: t.cfg.docs, party: o.party, lo: o.lo, hi: o.hi}
			if s := a.search; s != nil {
				if err := wellFormed(s.hits); err != nil {
					return quality{}, fmt.Errorf("op %d: %w", i, err)
				}
				cover.add(or.searchCover(o.query.terms, s.hits, searchK, pr))
				ndcg.add(or.rankingNDCG(o.query.ref, s.hits))
			}
			if a.aug == nil {
				continue
			}
			for _, l := range a.aug.lists {
				cover.add(or.listCover(l, protocolK, pr))
			}
			if pi != len(passes)-1 {
				continue // only the last pass's instances train the model
			}
			name := t.names[o.party+t.first]
			for _, vec := range a.aug.vectors {
				data[name] = append(data[name], instance{Features: vec, Label: 1,
					QueryKey: o.query.ref.key()})
			}
		}
	}
	q := quality{cover: cover.value(), ndcg: ndcg.value()}
	if len(data) > 0 {
		for p := 0; p < t.cfg.dataParties; p++ {
			name := t.names[p+t.first]
			data[name] = append(t.localData(p, seed), data[name]...)
		}
		tr, err := t.train(t.fed, data, t.testData(seed), seed)
		if err != nil {
			return quality{}, err
		}
		q.ndcg = tr.ndcgRoundRobin
	}
	return q, nil
}

// wellFormed checks a ranking's shape: best first, no document twice.
func wellFormed(hits []hit) error {
	seen := make(map[[2]int]bool, len(hits))
	for i, h := range hits {
		if i > 0 && h.score > hits[i-1].score {
			return fmt.Errorf("hit %d scores %v above its predecessor's %v", i, h.score, hits[i-1].score)
		}
		if seen[[2]int{h.party, h.doc}] {
			return fmt.Errorf("document %d of party %d is ranked twice", h.doc, h.party)
		}
		seen[[2]int{h.party, h.doc}] = true
	}
	return nil
}

// mean averages the samples that had something to score.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64, ok bool) {
	if ok {
		m.sum += v
		m.n++
	}
}

func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// digest hashes every answer of a pass: documents, scores and feature
// vectors, bit for bit.
func digest(answers []*answer) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putHits := func(hits []hit) {
		put(uint64(len(hits)))
		for _, x := range hits {
			put(uint64(x.party))
			put(uint64(x.doc))
			put(math.Float64bits(x.score))
		}
	}
	for _, a := range answers {
		if a == nil {
			put(math.MaxUint64)
			continue
		}
		if a.search != nil {
			putHits(a.search.hits)
		}
		if a.aug != nil {
			putHits(a.aug.cands)
			for _, l := range a.aug.lists {
				for _, d := range l.docs {
					put(uint64(d))
				}
			}
			for _, vec := range a.aug.vectors {
				for _, f := range vec {
					put(math.Float64bits(f))
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
