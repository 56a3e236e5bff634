package federation

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"csfltr/internal/chaos"
	"csfltr/internal/keyex"
	"csfltr/internal/ltr"
	"csfltr/internal/resilience"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
)

// metricSurfaceGolden pins what /v1/metrics exposes once every family
// has been touched: one line per family with its type, the set of label
// key sets its series use, and its HELP text.
const metricSurfaceGolden = "testdata/metric_surface.golden"

// metricSurface renders a registry's families as sorted lines of
// "name type {keys}|{keys} help" — everything a scraper sees but the
// values.
func metricSurface(reg *telemetry.Registry) string {
	var b strings.Builder
	for _, m := range reg.Snapshot().Metrics {
		sets := map[string]bool{}
		for _, s := range m.Series {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sets["{"+strings.Join(keys, ",")+"}"] = true
		}
		keySets := make([]string, 0, len(sets))
		for s := range sets {
			keySets = append(keySets, s)
		}
		sort.Strings(keySets)
		fmt.Fprintf(&b, "%s %s %s %q\n", m.Name, m.Type, strings.Join(keySets, "|"), m.Help)
	}
	return b.String()
}

// TestMetricSurface drives one 2 x 2 sharded federation through every
// metric family the federation layer exports — searches through the
// answer cache (a coalesced follower and a stale backfill under
// MinParties), the HTTP gateway (a 404, a 405 and an admission shed),
// injected chaos faults with retries, a round-robin run and a secure
// round with a dropout recovery — and compares the resulting surface
// with the golden file.
func TestMetricSurface(t *testing.T) {
	p := cacheParams()
	p.Shards, p.Replicas = 2, 2
	p.MinParties = 1
	p.CacheMaxStale = time.Hour
	p.Parallelism = 1
	fed := shardTestFedParams(t, p)
	policy := resilience.DefaultPolicy()
	policy.MaxAttempts = 8
	fed.SetResiliencePolicy(policy.WithSleep(func(time.Duration) {}))
	h := HTTPHandler(fed.Server)
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}

	// The gateway: a search, an unknown route, a wrong method, and a
	// search shed because the one execution slot is held.
	const search = `{"from":"A","terms":[3,7],"k":5}`
	if code := serve(http.MethodPost, "/v1/search", search); code != http.StatusOK {
		t.Fatalf("POST /v1/search = %d", code)
	}
	if code := serve(http.MethodGet, "/v1/nope", ""); code != http.StatusNotFound {
		t.Fatalf("GET /v1/nope = %d, want 404", code)
	}
	if code := serve(http.MethodGet, "/v1/search", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search = %d, want 405", code)
	}
	fed.Server.SetAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: time.Millisecond})
	release, ok, _ := fed.Server.admission.Load().admit(context.Background())
	if !ok {
		t.Fatal("an idle gateway refused a slot")
	}
	if code := serve(http.MethodPost, "/v1/search", `{"from":"A","terms":[1,4],"k":5}`); code != http.StatusTooManyRequests {
		t.Fatalf("POST /v1/search with the slot held = %d, want 429", code)
	}
	release()

	// A follower absorbed into an identical in-flight search: the leader
	// waits on C's link, and the follower starts once the leader's
	// fan-out is running.
	fed.Server.SetPartyLink("C", 500*time.Millisecond)
	terms := []uint64{12, 3}
	led := make(chan error, 1)
	go func() {
		_, err := fed.Search("A", terms, 5)
		led <- err
	}()
	fanout := fed.Server.Metrics().Gauge(MetricFanoutInFlight, "")
	for deadline := time.Now().Add(20 * time.Second); fanout.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the leader search never reached its fan-out")
		}
	}
	if _, err := fed.Search("A", terms, 5); err != nil {
		t.Fatal(err)
	}
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	fed.Server.SetPartyLink("C", 0)

	// A round-robin run over links that fail three times in ten: faults
	// are injected and hops retried.
	data := map[string][]ltr.Instance{
		"A": trainData(40, 1),
		"B": trainData(40, 2),
		"C": trainData(40, 3),
	}
	in := chaos.New(42)
	in.SetDefault(chaos.Profile{ErrorRate: 0.3})
	fed.Server.SetChaos(in)
	if _, _, err := fed.TrainRoundRobin(2, data, 3, ltr.DefaultSGDConfig()); err != nil {
		t.Fatal(err)
	}

	// B goes down after an ingest invalidated its cached answers: the
	// next search retries it, then backfills it from the stale entries,
	// and a secure round drops it and recovers.
	b, _ := fed.Party("B")
	mustIngest(t, b, 5000, []textkit.TermID{3})
	in = chaos.New(1)
	in.SetProfile("B", chaos.Profile{Down: true})
	fed.Server.SetChaos(in)
	res, err := fed.Search("A", []uint64{3, 7}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Parties[0].Party != "B" || res.Parties[0].Outcome != OutcomeStale {
		t.Fatalf("B report = %+v, want a stale backfill", res.Parties[0])
	}
	if _, stats, err := fed.TrainSecureFedAvg(2, data, 1, ltr.DefaultSGDConfig(),
		SecAggOptions{Entropy: keyex.SeededEntropy(1)}); err != nil || stats.Recoveries == 0 {
		t.Fatalf("secure round: %+v, %v; want a recovery", stats, err)
	}

	got := metricSurface(fed.Server.Metrics())
	want, err := os.ReadFile(metricSurfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric surface changed:\n%s\nwant (%s):\n%s", diffLines(got, string(want)), metricSurfaceGolden, want)
	}
}

// diffLines lists the lines only one of got and want holds.
func diffLines(got, want string) string {
	in := func(s string) map[string]bool {
		set := map[string]bool{}
		sc := bufio.NewScanner(strings.NewReader(s))
		for sc.Scan() {
			set[sc.Text()] = true
		}
		return set
	}
	g, w := in(got), in(want)
	var b strings.Builder
	for l := range g {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	for l := range w {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	return b.String()
}

// TestMetricHelpIndependentOfShards: a family has one HELP text, so a
// federation of 2 x 2 sharded parties, whose per-shard series register
// first, serves the same HELP lines as a 1 x 1 one.
func TestMetricHelpIndependentOfShards(t *testing.T) {
	help := func(shards, replicas int) string {
		p := testParams()
		p.Shards, p.Replicas = shards, replicas
		p.MinParties = 1
		fed := shardTestFedParams(t, p)
		if _, err := fed.Search("A", []uint64{3, 7}, 5); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := fed.Server.Metrics().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "# HELP ") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	if one, four := help(1, 1), help(2, 2); one != four {
		t.Fatalf("HELP lines differ:\n%s", diffLines(four, one))
	}
}

// TestCatalogueMatchesSurface: the catalogue and the golden surface name
// the same families with the same types and HELP texts, and every name
// keeps the csfltr_ prefix, with the _total suffix on counters alone.
func TestCatalogueMatchesSurface(t *testing.T) {
	golden, err := os.ReadFile(metricSurfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		fields := strings.SplitN(line, " ", 4)
		if len(fields) != 4 {
			t.Fatalf("malformed golden line %q", line)
		}
		name, typ, help := fields[0], fields[1], fields[3]
		seen[name] = true
		f, ok := catalogue[name]
		switch {
		case !ok:
			t.Errorf("%s is on the surface but not in the catalogue", name)
		case string(f.kind) != typ:
			t.Errorf("%s is a %s on the surface, a %s in the catalogue", name, typ, f.kind)
		case fmt.Sprintf("%q", f.help) != help:
			t.Errorf("%s help on the surface %s, in the catalogue %q", name, help, f.help)
		}
	}
	for name, f := range catalogue {
		if !seen[name] {
			t.Errorf("%s is in the catalogue but not on the surface", name)
		}
		if !strings.HasPrefix(name, "csfltr_") {
			t.Errorf("%s lacks the csfltr_ prefix", name)
		}
		if total := strings.HasSuffix(name, "_total"); total != (f.kind == kindCounter) {
			t.Errorf("%s is a %s; only counters end in _total", name, f.kind)
		}
	}
}

// TestFamilyRejectsUncatalogued: resolving a name the catalogue lacks,
// or a catalogued family as another kind, panics instead of registering
// a family without its declared help.
func TestFamilyRejectsUncatalogued(t *testing.T) {
	m := newServerMetrics(telemetry.NewRegistry())
	for what, resolve := range map[string]func(){
		"unknown counter":       func() { m.counter("csfltr_not_catalogued_total") },
		"counter as a gauge":    func() { m.gauge(MetricSearchRequests) },
		"gauge as a histogram":  func() { m.histogram(MetricFanoutInFlight) },
		"histogram as counter":  func() { m.counter(MetricSearchDuration) },
		"counter as a callback": func() { m.gaugeFunc(MetricRetries, func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", what)
				}
			}()
			resolve()
		}()
	}
	for _, f := range m.reg.Snapshot().Metrics {
		if f.Name == "csfltr_not_catalogued_total" {
			t.Fatal("an uncatalogued family was registered")
		}
	}
}
