// sut.go is the benchmark's only adapter to the system under test:
// every import of csfltr/internal/... lives here (build a topology,
// run one op, read a counter), so a refactor of the product packages
// needs a follow-up in this one file rather than a rewrite.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/corpus"
	"csfltr/internal/features"
	"csfltr/internal/federation"
	"csfltr/internal/hashutil"
	"csfltr/internal/keyex"
	"csfltr/internal/leakcheck"
	"csfltr/internal/ltr"
	"csfltr/internal/secagg"
	"csfltr/internal/telemetry"
	"csfltr/internal/textkit"
	"csfltr/internal/wire"
)

// Protocol and pipeline constants shared by every workload: the paper's
// defaults with K = 50 and epsilon = 0.5, one fan-out worker.
const (
	protocolK   = 50  // reverse top-K size
	epsilon     = 0.5 // DP budget per cross-party query
	searchK     = 10  // hits per federated search
	augPerQuery = 20  // cross-party candidates kept per training query
	trainRounds = 15  // rounds of each training protocol
	negPerQuery = 40  // sampled local negatives per training query
	testNegs    = 60  // sampled negatives per held-out query
	trainFrac   = 0.7 // share of each party's queries used for training
	labelFrac   = 0.35
)

// fixedSeed generates the data set and feeds the key agreement, so the
// documents, the queries, their ground truth and the sketch hash seed are
// the same on every run, like a real collection and a deployed key. A
// run's --seed draws what is random in the protocol itself: every
// party's differential-privacy noise and query obfuscation.
const fixedSeed = 20210419

// topoConfig describes one workload's corpus and deployment.
type topoConfig struct {
	dataParties int  // parties holding documents
	querier     bool // put a document-less querier "A" in front of them
	docs        int  // documents ingested per party at set-up
	docLen      int
	topics      int // topical clusters; 0 keeps the generator's default
	queries     int // corpus queries per party
	minTerms    int
	maxTerms    int
	epsilon     float64
	shards      int
	replicas    int
	cacheBytes  int64
	http        bool // data parties behind HTTP listeners, gateway in front
	stats       bool // collection statistics for feature extraction
	countSocket bool // count bytes on the party listeners (traced run)
}

// spareDocs further documents are generated per party but not ingested
// at set-up: ingest_churn's ops and the traced run's add/remove rungs
// move them in and out.
const spareDocs = 16

// qref names a corpus query: the ground-truth labels are keyed by it.
type qref struct{ party, query int }

// key groups a query's instances in the learning-to-rank metrics.
func (q qref) key() string { return fmt.Sprintf("p%d.q%d", q.party, q.query) }

// query is one corpus query: the key of its ground truth and its terms.
type query struct {
	ref   qref
	terms []uint64
}

// hit is one ranked document; party is the corpus party index.
type hit struct {
	party, doc int
	score      float64
}

// searchAnswer is one federated search as its caller sees it.
type searchAnswer struct {
	hits    []hit
	retries int // in-process searches only: the gateway does not report them
}

// rtkList is one reverse top-K answer of an augmentation op.
type rtkList struct {
	peer int
	term uint64
	docs []int32
}

// instance is one learning-to-rank training or test example.
type instance = ltr.Instance

// setupTimes are the set-up steps timed for the per-layer report.
type setupTimes struct{ generate, secret time.Duration }

// topology is one built system under test.
type topology struct {
	cfg      topoConfig
	params   core.Params
	corpus   *corpus.Corpus
	fed      *federation.Federation
	names    []string // federation party names; names[first:] are corpus parties
	first    int
	hashSeed uint64
	stats    *features.Stats
	setup    setupTimes

	servers     []*http.Server
	addrs       []string // every address served, for the hygiene test
	serveWG     sync.WaitGroup
	peerClient  *http.Client // coordinator -> party hosts
	userClient  *http.Client // benchmark client -> gateway
	gatewayURL  string
	socketBytes atomic.Int64
}

func protocolParams(cfg topoConfig) core.Params {
	p := core.DefaultParams()
	p.K = protocolK
	p.Epsilon = cfg.epsilon
	p.Parallelism = 1
	p.Shards, p.Replicas = cfg.shards, cfg.replicas
	p.CacheBytes = cfg.cacheBytes
	return p
}

// buildTopology runs the whole set-up: corpus generation, seeded key
// agreement, party construction, bulk ingest and, for HTTP topologies,
// the listeners.
func buildTopology(cfg topoConfig, seed int64) (t *topology, err error) {
	t = &topology{cfg: cfg, params: protocolParams(cfg)}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	cc := corpus.DefaultConfig()
	cc.Seed = fixedSeed
	cc.NumParties = cfg.dataParties
	cc.DocsPerParty = cfg.docs + spareDocs
	cc.DocLen = cfg.docLen
	cc.QueriesPerParty = cfg.queries
	cc.QueryMinTerms, cc.QueryMaxTerms = cfg.minTerms, cfg.maxTerms
	if cfg.topics > 0 {
		cc.NumTopics = cfg.topics
	}
	start := time.Now()
	if t.corpus, err = corpus.Generate(cc); err != nil {
		return nil, err
	}
	t.setup.generate = time.Since(start)

	if cfg.querier {
		t.first = 1
	}
	for i := 0; i < cfg.dataParties+t.first; i++ {
		t.names = append(t.names, string(rune('A'+i)))
	}
	start = time.Now()
	secrets, err := keyex.AgreeFederationSecret(len(t.names), keyex.SeededEntropy(fixedSeed))
	if err != nil {
		return nil, err
	}
	t.setup.secret = time.Since(start)
	t.hashSeed = hashutil.DeriveSeed(secrets[0], "csfltr/sketch-hash/v1")

	parties := make([]*federation.Party, len(t.names))
	for i, name := range t.names {
		if parties[i], err = t.newParty(name, t.params, seed+int64(i)*1000); err != nil {
			return nil, err
		}
		if i >= t.first {
			if err = parties[i].IngestAllParallel(t.corpus.Parties[i-t.first].Docs[:cfg.docs], 1); err != nil {
				return nil, err
			}
		}
	}
	if cfg.stats {
		sets := make([][]*textkit.Document, cfg.dataParties)
		for i, p := range t.corpus.Parties {
			sets[i] = p.Docs[:cfg.docs]
		}
		t.stats = features.ComputeStats(sets...)
	}

	coord := federation.NewServer()
	coord.SetWireCodec(true)
	if !cfg.http {
		for _, p := range parties {
			if err = coord.Register(p); err != nil {
				return nil, err
			}
		}
		t.fed = federation.Assemble(coord, parties, t.params, t.hashSeed)
		return t, nil
	}
	t.peerClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	t.userClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	if err = coord.Register(parties[0]); err != nil {
		return nil, err
	}
	for _, p := range parties[t.first:] {
		host := federation.NewServer()
		if err = host.Register(p); err != nil {
			return nil, err
		}
		url, err := t.serve(federation.HTTPHandler(host), cfg.countSocket)
		if err != nil {
			return nil, err
		}
		if err = coord.RegisterHTTPRemote(p.Name, url, t.peerClient); err != nil {
			return nil, err
		}
	}
	t.fed = federation.Assemble(coord, parties, t.params, t.hashSeed)
	t.gatewayURL, err = t.serve(federation.HTTPHandler(coord), false)
	return t, err
}

func (t *topology) newParty(name string, params core.Params, rngSeed int64) (*federation.Party, error) {
	return federation.NewParty(name, federation.PartyConfig{Params: params, Seed: t.hashSeed, RNGSeed: rngSeed})
}

// serve starts an HTTP server on a loopback port and returns its URL.
// close shuts it down and waits for its goroutine.
func (t *topology) serve(h http.Handler, count bool) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if count {
		ln = countingListener{Listener: ln, n: &t.socketBytes}
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	t.addrs = append(t.addrs, ln.Addr().String())
	t.serveWG.Add(1)
	go func() {
		defer t.serveWG.Done()
		_ = srv.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every listener down, drops idle connections and waits for
// the serve goroutines. Safe on a partly built topology.
func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, c := range []*http.Client{t.userClient, t.peerClient} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	for _, srv := range t.servers {
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // a connection would not drain: cut it
		}
	}
	t.serveWG.Wait()
	t.servers = nil
}

// countingListener counts every byte its connections read or write.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// ---- corpus views -------------------------------------------------

// queryPool lists every corpus query, in (party, query) order.
func (t *topology) queryPool() []query {
	var out []query
	for pi, p := range t.corpus.Parties {
		for _, q := range p.Queries {
			out = append(out, query{qref{pi, q.ID}, termIDs(q.UniqueTerms())})
		}
	}
	return out
}

func termIDs(ts []textkit.TermID) []uint64 {
	out := make([]uint64, len(ts))
	for i, t := range ts {
		out[i] = uint64(t)
	}
	return out
}

// bodyCounts calls fn with every (term, count) of one document's body.
func (t *topology) bodyCounts(party, doc int, fn func(term uint64, count int)) {
	for term, c := range t.corpus.Parties[party].Docs[doc].BodyCounts() {
		fn(uint64(term), c)
	}
}

func (t *topology) totalDocs() int { return t.cfg.docs + spareDocs }

// label is the ground-truth relevance (2, 1 or 0) of a document. Spare
// documents are not part of the judged collection: they count as 0.
func (t *topology) label(q qref, party, doc int) int {
	if doc >= t.cfg.docs {
		return 0
	}
	return t.corpus.Label(corpus.QueryRef{Party: q.party, Query: q.query}, corpus.DocRef{Party: party, Doc: doc})
}

// idealLabels is the ground-truth ranking's label sequence, best first.
func (t *topology) idealLabels(q qref) []int {
	var out []int
	for _, sd := range t.corpus.GroundTruth(corpus.QueryRef{Party: q.party, Query: q.query}) {
		if sd.Ref.Doc < t.cfg.docs {
			out = append(out, sd.Label)
		}
	}
	return out
}

func (t *topology) partyIndex(name string) int { return int(name[0]-'A') - t.first }

// ---- ops -----------------------------------------------------------

func (t *topology) answerOf(res *federation.SearchResult) *searchAnswer {
	a := &searchAnswer{hits: make([]hit, len(res.Hits))}
	for i, h := range res.Hits {
		a.hits[i] = hit{t.partyIndex(h.Party), h.DocID, h.Score}
	}
	for _, rep := range res.Parties {
		a.retries += rep.Retries
	}
	return a
}

// search runs one federated search from the first party, in process.
func (t *topology) search(terms []uint64) (*searchAnswer, error) {
	return t.searchOn(t.fed, terms)
}

func (t *topology) searchOn(fed *federation.Federation, terms []uint64) (*searchAnswer, error) {
	res, err := fed.Search(t.names[0], terms, searchK)
	if err != nil {
		return nil, err
	}
	return t.answerOf(res), nil
}

type gatewayRequest struct {
	From  string   `json:"from"`
	Terms []uint64 `json:"terms"`
	K     int      `json:"k"`
}

type gatewayResponse struct {
	Hits []struct {
		Party string  `json:"party"`
		DocID int     `json:"doc_id"`
		Score float64 `json:"score"`
	} `json:"hits"`
	Parties []struct {
		Outcome string `json:"outcome"`
	} `json:"parties"`
}

// gatewaySearch POSTs one search to a gateway as a remote user would.
func (t *topology) gatewaySearch(client *http.Client, url, from string, terms []uint64) (*searchAnswer, error) {
	body, err := json.Marshal(gatewayRequest{From: from, Terms: terms, K: searchK})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("gateway status %d: %s", resp.StatusCode, msg)
	}
	var out gatewayResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained bodies keep the connection reusable
	a := &searchAnswer{hits: make([]hit, len(out.Hits))}
	for i, h := range out.Hits {
		a.hits[i] = hit{t.partyIndex(h.Party), h.DocID, h.Score}
	}
	for _, rep := range out.Parties {
		if rep.Outcome != federation.OutcomeOK {
			return nil, fmt.Errorf("gateway: party outcome %q", rep.Outcome)
		}
	}
	return a, nil
}

// augAnswer is one training query augmented end to end.
type augAnswer struct {
	lists   []rtkList
	cands   []hit
	vectors [][]float64
	tfCalls int
}

// augment runs the paper's augmentation for one training query of party
// names[src] against every data party but itself, exactly as the
// experiments pipeline does it: reverse top-K per (peer, term), merge,
// top candidates, then metadata and cross-party TF queries for the
// features. A non-nil tracer gets one span per public call.
func (t *topology) augment(fed *federation.Federation, src int, terms []uint64, tr *tracer) (*augAnswer, error) {
	a := &augAnswer{}
	type cand struct {
		party, doc int
		score      float64
		counts     map[uint64]float64
	}
	from := t.names[src]
	byRef := make(map[[2]int]*cand)
	for j := range t.corpus.Parties {
		if j+t.first == src {
			continue
		}
		for _, term := range terms {
			sp := tr.begin("federation.reverse_topk")
			docs, _, err := fed.ReverseTopK(from, t.names[j+t.first], federation.FieldBody, term, protocolK, true)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			list := rtkList{peer: j, term: term, docs: make([]int32, 0, len(docs))}
			for _, dc := range docs {
				list.docs = append(list.docs, int32(dc.DocID))
				if dc.Count <= 0 {
					continue
				}
				c := byRef[[2]int{j, dc.DocID}]
				if c == nil {
					c = &cand{party: j, doc: dc.DocID, counts: make(map[uint64]float64)}
					byRef[[2]int{j, dc.DocID}] = c
				}
				c.counts[term] = dc.Count
				c.score += dc.Count
			}
			a.lists = append(a.lists, list)
		}
	}
	cands := make([]*cand, 0, len(byRef))
	for _, c := range byRef {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].score != cands[y].score {
			return cands[x].score > cands[y].score
		}
		if cands[x].party != cands[y].party {
			return cands[x].party < cands[y].party
		}
		return cands[x].doc < cands[y].doc
	})
	if len(cands) > augPerQuery {
		cands = cands[:augPerQuery]
	}
	qTerms := make([]textkit.TermID, len(terms))
	for i, term := range terms {
		qTerms[i] = textkit.TermID(term)
	}
	for _, c := range cands {
		to := t.names[c.party+t.first]
		sp := tr.begin("federation.doc_meta")
		body, err := fed.Server.OwnerFor(to, federation.FieldBody)
		if err != nil {
			return nil, err
		}
		title, err := fed.Server.OwnerFor(to, federation.FieldTitle)
		if err != nil {
			return nil, err
		}
		bLen, bUniq, err := body.DocMeta(c.doc)
		if err != nil {
			return nil, err
		}
		tLen, tUniq, err := title.DocMeta(c.doc)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		// Body counts the reverse top-K heaps did not deliver, then every
		// title count, come from cross-party TF queries.
		titleCounts := make(map[uint64]float64, len(terms))
		for _, field := range []federation.Field{federation.FieldBody, federation.FieldTitle} {
			counts := titleCounts
			if field == federation.FieldBody {
				counts = c.counts
			}
			for _, term := range terms {
				if _, ok := counts[term]; ok {
					continue
				}
				sp := tr.begin("federation.cross_tf")
				v, err := fed.CrossTF(from, to, field, c.doc, term)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				counts[term] = v
				a.tfCalls++
			}
		}
		sp = tr.begin("features.vector")
		vec := features.Vector(qTerms,
			features.FuncField(func(x textkit.TermID) float64 { return c.counts[uint64(x)] }, bLen, bUniq),
			features.FuncField(func(x textkit.TermID) float64 { return titleCounts[uint64(x)] }, tLen, tUniq),
			t.stats, features.DefaultParams())
		tr.end(sp)
		a.cands = append(a.cands, hit{c.party, c.doc, c.score})
		a.vectors = append(a.vectors, vec)
	}
	return a, nil
}

// ingest bulk-loads spare documents [lo, hi) of a corpus party.
func (t *topology) ingest(party, lo, hi int) error {
	return t.fed.Parties[party+t.first].IngestAllParallel(t.corpus.Parties[party].Docs[lo:hi], 1)
}

// remove deletes documents [lo, hi) of a corpus party again.
func (t *topology) remove(party, lo, hi int) error {
	for d := lo; d < hi; d++ {
		if err := t.fed.Parties[party+t.first].RemoveDocument(d); err != nil {
			return err
		}
	}
	return nil
}

// ---- counters ------------------------------------------------------

// counters is a snapshot of everything the product accounts by itself.
type counters struct {
	wireBytes  int64   // transport bytes under the wire codec, all APIs
	epsilon    float64 // summed over every party's accountant and peer
	replays    int64
	queryHits  int64
	taskHits   int64
	taskMiss   int64
	evictions  int64
	cacheBytes int64
	socket     int64
}

// since is what was counted after the earlier snapshot; the cache's
// resident bytes stay a level.
func (c counters) since(earlier counters) counters {
	c.wireBytes -= earlier.wireBytes
	c.epsilon -= earlier.epsilon
	c.replays -= earlier.replays
	c.queryHits -= earlier.queryHits
	c.taskHits -= earlier.taskHits
	c.taskMiss -= earlier.taskMiss
	c.evictions -= earlier.evictions
	c.socket -= earlier.socket
	return c
}

func (t *topology) counters() counters {
	c := counters{
		wireBytes: t.fed.Server.TransportBytes(federation.CodecWire, ""),
		socket:    t.socketBytes.Load(),
	}
	for _, p := range t.fed.Parties {
		for _, row := range p.Accountant().Ledger() {
			c.epsilon += row.Spent
			c.replays += row.Replays
		}
	}
	if t.params.CacheBytes > 0 {
		lookups := func(tier, result string) int64 {
			return t.fed.Server.Metrics().Counter(federation.MetricCacheLookups, "",
				telemetry.L("tier", tier), telemetry.L("result", result)).Value()
		}
		c.queryHits = lookups("query", "hit")
		c.taskHits, c.taskMiss = lookups("task", "hit"), lookups("task", "miss")
		st := t.fed.CacheStats()
		c.evictions, c.cacheBytes = st.Evictions, st.Bytes
	}
	return c
}

// leakBaseline and leaked wrap the product's goroutine-leak detector.
type goroutines = []leakcheck.Goroutine

func leakBaseline() goroutines { return leakcheck.Snapshot() }

func leaked(base goroutines) []string {
	var out []string
	for _, g := range leakcheck.Leaked(base, 2*time.Second) {
		out = append(out, g.Stack)
	}
	return out
}

// ---- training tail -------------------------------------------------

func (t *topology) exactInstance(q qref, terms []uint64, party, doc, label int) instance {
	d := t.corpus.Parties[party].Docs[doc]
	qTerms := make([]textkit.TermID, len(terms))
	for i, term := range terms {
		qTerms[i] = textkit.TermID(term)
	}
	vec := features.Vector(qTerms, features.ExactField(d.BodyCounts()), features.ExactField(d.TitleCounts()),
		t.stats, features.DefaultParams())
	return instance{Features: vec, Label: float64(label), QueryKey: q.key()}
}

// trainSplit is the number of training queries of each party; the rest
// are held out.
func (t *topology) trainSplit() int { return int(trainFrac * float64(t.cfg.queries)) }

// localData is a party's own training set with exact features: the
// scarce share of its local ground-truth positives plus sampled local
// negatives.
func (t *topology) localData(party int, seed int64) []instance {
	var out []instance
	rng := rand.New(rand.NewSource(seed + int64(party)*7919))
	for _, q := range t.corpus.Parties[party].Queries[:t.trainSplit()] {
		ref, terms := qref{party, q.ID}, termIDs(q.UniqueTerms())
		local := make(map[int]bool)
		for _, sd := range t.corpus.GroundTruth(corpus.QueryRef{Party: party, Query: q.ID}) {
			if sd.Ref.Party != party || sd.Ref.Doc >= t.cfg.docs {
				continue
			}
			local[sd.Ref.Doc] = true
			if rng.Float64() <= labelFrac {
				out = append(out, t.exactInstance(ref, terms, party, sd.Ref.Doc, sd.Label))
			}
		}
		for n := 0; n < negPerQuery; n++ {
			if d := rng.Intn(t.cfg.docs); !local[d] {
				out = append(out, t.exactInstance(ref, terms, party, d, 0))
			}
		}
	}
	return out
}

// testData is the shared held-out set: every held-out query's full
// ground truth plus sampled negatives, exact features, shuffled.
func (t *topology) testData(seed int64) []instance {
	var out []instance
	rng := rand.New(rand.NewSource(seed + 104729))
	for pi, p := range t.corpus.Parties {
		for _, q := range p.Queries[t.trainSplit():] {
			ref, terms := qref{pi, q.ID}, termIDs(q.UniqueTerms())
			truth := make(map[corpus.DocRef]bool)
			for _, sd := range t.corpus.GroundTruth(corpus.QueryRef{Party: pi, Query: q.ID}) {
				truth[sd.Ref] = true
				if sd.Ref.Doc < t.cfg.docs {
					out = append(out, t.exactInstance(ref, terms, sd.Ref.Party, sd.Ref.Doc, sd.Label))
				}
			}
			for n := 0; n < testNegs; n++ {
				d := corpus.DocRef{Party: rng.Intn(len(t.corpus.Parties)), Doc: rng.Intn(t.cfg.docs)}
				if !truth[d] {
					out = append(out, t.exactInstance(ref, terms, d.Party, d.Doc, 0))
				}
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// trainReport is what the train tail measured.
type trainReport struct {
	ndcgRoundRobin, ndcgSecure float64
	roundRobin, evaluate       time.Duration // whole run; one Evaluate call
	secureRound, ceremony      time.Duration // one secure round; the pairwise key agreement alone
	maskedBytes                int64
	retries                    int
}

// train runs the train tail on per-party data (keyed by party name):
// a normalizer fitted on the union, round-robin SGD and masked secure
// federated averaging through the federation, then evaluation on test.
func (t *topology) train(fed *federation.Federation, data map[string][]instance, test []instance, seed int64) (trainReport, error) {
	var rep trainReport
	var all [][]float64
	for _, name := range t.names {
		for _, inst := range data[name] {
			all = append(all, inst.Features)
		}
	}
	if len(all) == 0 {
		return rep, errors.New("train: no training data")
	}
	nz := features.FitNormalizer(all)
	normed := func(in []instance) []instance {
		out := make([]instance, len(in))
		for i, inst := range in {
			out[i] = instance{Features: nz.Apply(append([]float64(nil), inst.Features...)), Label: inst.Label, QueryKey: inst.QueryKey}
		}
		return out
	}
	byParty := make(map[string][]instance, len(data))
	for name, d := range data {
		byParty[name] = normed(d)
	}
	test = normed(test)
	sgd := ltr.DefaultSGDConfig()

	start := time.Now()
	rr, rrStats, err := fed.TrainRoundRobin(features.Dim, byParty, trainRounds, sgd)
	if err != nil {
		return rep, err
	}
	rep.roundRobin = time.Since(start)

	start = time.Now()
	if _, err := keyex.AgreePairwise(len(t.names), keyex.SeededEntropy(uint64(seed))); err != nil {
		return rep, err
	}
	rep.ceremony = time.Since(start)
	// A secure run opens with its own key agreement; the product's round
	// timer tells the rounds apart from it.
	rounds := fed.Server.Metrics().Histogram(federation.MetricTrainingRoundDuration, "", nil)
	before := rounds.Sum()
	sec, secStats, err := fed.TrainSecureFedAvg(features.Dim, byParty, trainRounds, sgd,
		federation.SecAggOptions{Entropy: keyex.SeededEntropy(uint64(seed))})
	if err != nil {
		return rep, err
	}
	rep.secureRound = time.Duration((rounds.Sum() - before) / trainRounds * float64(time.Second))
	rep.maskedBytes = secStats.MaskedBytes
	rep.retries = rrStats.Retries + secStats.Retries

	start = time.Now()
	rep.ndcgRoundRobin = ltr.Evaluate(rr, test).NDCG10
	rep.evaluate = time.Since(start)
	rep.ndcgSecure = ltr.Evaluate(sec, test).NDCG10
	return rep, nil
}

// maskOnce times one secure-aggregation mask of a model-sized update
// among n parties.
func maskOnce(n int, seed int64) (time.Duration, error) {
	secrets, err := keyex.AgreePairwise(n, keyex.SeededEntropy(uint64(seed)))
	if err != nil {
		return 0, err
	}
	m, err := secagg.NewMasker(0, secrets[0])
	if err != nil {
		return 0, err
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	q := secagg.Quantize(make(secagg.RawUpdate, features.Dim+1), secagg.DefaultConfig())
	start := time.Now()
	_, err = m.Mask(1, q, active)
	return time.Since(start), err
}

// ---- ladder rungs (traced run) --------------------------------------

// ladder is the auxiliary state the outside-in layer ladder replays
// sampled ops through: cache-off in-process views of the workload's own
// parties (tracing off and on), an unsharded and a 4 x 2 sharded twin of
// the last data party, and a host serving the unsharded twin in process,
// over HTTP and behind a cache-on search gateway.
type ladder struct {
	t       *topology
	flat    *federation.Federation
	traced  *federation.Federation
	twin    int // corpus party the twins copy
	single  *federation.Party
	sharded *federation.Party
	relay   *federation.Server     // single registered in process
	remote  *federation.Server     // single registered as an HTTP remote of relay
	gateway *federation.Federation // cache-on federation served at hostURL
	hostURL string
}

func (t *topology) newLadder(seed int64) (*ladder, error) {
	l := &ladder{t: t, twin: t.cfg.dataParties - 1}
	noCache := t.params
	noCache.CacheBytes = 0
	view := func(trace bool) (*federation.Federation, error) {
		srv := federation.NewServer()
		srv.SetWireCodec(true)
		if trace {
			srv.EnableTracing(federation.TraceConfig{})
		}
		for _, p := range t.fed.Parties {
			if err := srv.Register(p); err != nil {
				return nil, err
			}
		}
		return federation.Assemble(srv, t.fed.Parties, noCache, t.hashSeed), nil
	}
	var err error
	if l.flat, err = view(false); err != nil {
		return nil, err
	}
	if l.traced, err = view(true); err != nil {
		return nil, err
	}

	name := t.names[l.twin+t.first]
	docs := t.corpus.Parties[l.twin].Docs[:t.cfg.docs]
	plain := noCache
	plain.Shards, plain.Replicas = 0, 0
	split := noCache
	split.Shards, split.Replicas = 4, 2
	if l.single, err = t.newParty(name, plain, seed+7); err != nil {
		return nil, err
	}
	if l.sharded, err = t.newParty(name, split, seed+7); err != nil {
		return nil, err
	}
	for _, p := range []*federation.Party{l.single, l.sharded} {
		if err = p.IngestAllParallel(docs, 1); err != nil {
			return nil, err
		}
	}

	// The gateway federation gets a querier of its own, so its cache-on
	// searches never touch the workload's accountant.
	querier, err := t.newParty("Q", plain, seed+11)
	if err != nil {
		return nil, err
	}
	l.relay = federation.NewServer()
	for _, p := range []*federation.Party{querier, l.single} {
		if err = l.relay.Register(p); err != nil {
			return nil, err
		}
	}
	cached := plain
	cached.CacheBytes = 1 << 20
	l.gateway = federation.Assemble(l.relay, []*federation.Party{querier, l.single}, cached, t.hashSeed)
	if l.hostURL, err = t.serve(federation.HTTPHandler(l.relay), false); err != nil {
		return nil, err
	}
	if t.userClient == nil {
		t.userClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	}
	l.remote = federation.NewServer()
	return l, l.remote.RegisterHTTPRemote(name, l.hostURL, t.userClient)
}

// rtkRung is the reverse top-K ladder for one term against the twins:
// every duration is one public call under its own span.
type rtkRung struct {
	plan       time.Duration // Querier.Plan
	answer     time.Duration // Owner.AnswerRTK, direct
	withPlan   time.Duration // core.RTKWithPlan on the direct owner
	relayed    time.Duration // Server.OwnerFor(...).AnswerRTK, in process
	overHTTP   time.Duration // the same through an HTTP remote
	shardedRTK time.Duration // shard.Group.AnswerRTK on the same documents
	encode     time.Duration // wire.AppendRTKResponse
	decode     time.Duration // wire.DecodeRTKResponse
	frameBytes int
	allocs     uint64 // mallocs inside RTKWithPlan
}

// add accumulates another rung's measurements.
func (r *rtkRung) add(o rtkRung) {
	r.plan += o.plan
	r.answer += o.answer
	r.withPlan += o.withPlan
	r.relayed += o.relayed
	r.overHTTP += o.overHTTP
	r.shardedRTK += o.shardedRTK
	r.encode += o.encode
	r.decode += o.decode
	r.frameBytes += o.frameBytes
	r.allocs += o.allocs
}

func (l *ladder) rtk(term uint64, mallocs func() uint64, tr *tracer) (r rtkRung, err error) {
	sp := tr.begin("core.plan")
	plan := l.t.fed.Parties[0].Querier().Plan(term)
	r.plan = tr.end(sp)

	owner := l.single.Owner(federation.FieldBody)
	if _, err = owner.AnswerRTK(plan.Query()); err != nil { // untimed: pulls the cells into cache for every rung alike
		return r, err
	}
	sp = tr.begin("core.answer_rtk")
	resp, err := owner.AnswerRTK(plan.Query())
	r.answer = tr.end(sp)
	if err != nil {
		return r, err
	}
	before := mallocs()
	sp = tr.begin("core.rtk_with_plan")
	_, _, err = core.RTKWithPlan(plan, owner, protocolK)
	r.withPlan = tr.end(sp)
	r.allocs = mallocs() - before
	if err != nil {
		return r, err
	}
	for _, hop := range []struct {
		name string
		srv  *federation.Server
		d    *time.Duration
	}{{"federation.relay.answer_rtk", l.relay, &r.relayed}, {"federation.http.answer_rtk", l.remote, &r.overHTTP}} {
		api, err := hop.srv.OwnerFor(l.single.Name, federation.FieldBody)
		if err != nil {
			return r, err
		}
		sp = tr.begin(hop.name)
		_, err = api.AnswerRTK(plan.Query())
		*hop.d = tr.end(sp)
		if err != nil {
			return r, err
		}
	}
	sp = tr.begin("shard.answer_rtk")
	_, err = l.sharded.Group(federation.FieldBody).AnswerRTK(plan.Query())
	r.shardedRTK = tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("wire.encode_rtk")
	frame := wire.AppendRTKResponse(nil, resp)
	r.encode = tr.end(sp)
	r.frameBytes = len(frame)
	sp = tr.begin("wire.decode_rtk")
	_, err = wire.DecodeRTKResponse(frame)
	r.decode = tr.end(sp)
	return r, err
}

// tfRung is the cross-party TF ladder for one (document, term) of the
// twin party.
type tfRung struct {
	build, answer, recover time.Duration // Querier.BuildQuery, Owner.AnswerTF, Querier.Recover
	crossTF                time.Duration // Federation.CrossTF on the workload's own party
}

// add accumulates another rung's measurements.
func (r *tfRung) add(o tfRung) {
	r.build += o.build
	r.answer += o.answer
	r.recover += o.recover
	r.crossTF += o.crossTF
}

func (l *ladder) tf(doc int, term uint64, tr *tracer) (r tfRung, err error) {
	t := l.t
	q := t.fed.Parties[0].Querier()
	sp := tr.begin("core.build_query")
	query, priv := q.BuildQuery(term)
	r.build = tr.end(sp)
	sp = tr.begin("core.answer_tf")
	resp, err := l.single.Owner(federation.FieldBody).AnswerTF(doc, query)
	r.answer = tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("core.recover")
	_, err = q.Recover(priv, resp)
	r.recover = tr.end(sp)
	if err != nil {
		return r, err
	}
	sp = tr.begin("federation.cross_tf")
	_, err = l.flat.CrossTF(t.names[0], l.single.Name, federation.FieldBody, doc, term)
	r.crossTF = tr.end(sp)
	return r, err
}

// searchFlat and searchTraced replay one search through the cache-off
// views, tracing off and on.
func (l *ladder) searchFlat(terms []uint64, tr *tracer) (time.Duration, error) {
	sp := tr.begin("federation.search")
	_, err := l.t.searchOn(l.flat, terms)
	return tr.end(sp), err
}

func (l *ladder) searchTraced(terms []uint64, tr *tracer) (time.Duration, error) {
	sp := tr.begin("federation.search.tracing_on")
	_, err := l.t.searchOn(l.traced, terms)
	return tr.end(sp), err
}

// searchParts replays the parts of one search: a plan per term, then one
// routed RTKWithPlan per (party, term).
func (l *ladder) searchParts(terms []uint64, tr *tracer) (plans, routed time.Duration, calls int, err error) {
	t := l.t
	q := t.fed.Parties[0].Querier()
	built := make([]*core.Plan, len(terms))
	for i, term := range terms {
		sp := tr.begin("core.plan")
		built[i] = q.Plan(term)
		plans += tr.end(sp)
	}
	for _, name := range t.names[1:] {
		owner, err := l.flat.Server.OwnerFor(name, federation.FieldBody)
		if err != nil {
			return plans, routed, calls, err
		}
		for _, plan := range built {
			sp := tr.begin("federation.rtk_routed")
			_, _, err = core.RTKWithPlan(plan, owner, protocolK)
			routed += tr.end(sp)
			calls++
			if err != nil {
				return plans, routed, calls, err
			}
		}
	}
	return plans, routed, calls, nil
}

// gatewayRung times one cached search in process and through the HTTP
// gateway in front of the same federation.
func (l *ladder) gatewayRung(terms []uint64, tr *tracer) (inproc, posted time.Duration, err error) {
	t := l.t
	if _, err = l.gateway.Search("Q", terms, searchK); err != nil { // fill the cache
		return 0, 0, err
	}
	sp := tr.begin("federation.gateway.search_cached")
	_, err = l.gateway.Search("Q", terms, searchK)
	inproc = tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = tr.begin("federation.gateway.post_cached")
	_, err = t.gatewaySearch(t.userClient, l.hostURL, "Q", terms)
	posted = tr.end(sp)
	return inproc, posted, err
}

// churnRung times adding and removing the same n spare documents on the
// unsharded and the sharded twin.
type churnRung struct{ coreAdd, coreRemove, shardAdd, shardRemove time.Duration }

func (l *ladder) churnRung(n int, tr *tracer) (r churnRung, err error) {
	docs := l.t.corpus.Parties[l.twin].Docs[l.t.cfg.docs : l.t.cfg.docs+n]
	for _, twin := range []struct {
		layer       string
		p           *federation.Party
		add, remove *time.Duration
	}{{"core", l.single, &r.coreAdd, &r.coreRemove}, {"shard", l.sharded, &r.shardAdd, &r.shardRemove}} {
		sp := tr.begin(twin.layer + ".add_documents")
		err = twin.p.IngestAllParallel(docs, 1)
		*twin.add = tr.end(sp)
		if err != nil {
			return r, err
		}
		sp = tr.begin(twin.layer + ".remove_documents")
		for _, d := range docs {
			if err = twin.p.RemoveDocument(d.ID); err != nil {
				return r, err
			}
		}
		*twin.remove = tr.end(sp)
	}
	return r, nil
}
