// Command csfltr is the pipeline driver of the CS-F-LTR reproduction.
//
//	csfltr demo                 # end-to-end simulation, Table-I output
//	csfltr serve -http :7070    # host a federation server over HTTP
//	csfltr query -addr HOST:PORT -party B -term 12345 -k 10
//
// serve generates the synthetic corpus, ingests every party's documents
// into their sketches and exports the coordinating server's HTTP
// gateway; query runs a reverse top-K document query (Algorithm 5)
// against it as a remote querier.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"csfltr/internal/core"
	"csfltr/internal/corpus"
	"csfltr/internal/experiments"
	"csfltr/internal/federation"
	"csfltr/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = demo(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	case "query":
		err = query(os.Args[2:])
	case "party":
		err = partyCmd(os.Args[2:])
	case "train":
		err = train(os.Args[2:])
	case "eval":
		err = evalCmd(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csfltr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  csfltr demo  [-scale test|default] [-seed N]
  csfltr serve [-http HOST:PORT] [-scale test|default] [-seed N] [-remote NAME=ADDR] [-debug-addr HOST:PORT] [-trace]
  csfltr query -addr HOST:PORT [-party NAME] [-term ID] [-k N] [-naive] [-scale test|default]
  csfltr party -name NAME [-addr HOST:PORT] [-scale test|default] [-seed N] [-debug-addr HOST:PORT]
  csfltr train [-scale test|default] [-seed N] -model FILE
  csfltr eval  [-scale test|default] [-seed N] -model FILE
  csfltr trace [-http HOST:PORT] [-id TRACE] [-chrome FILE]`)
}

// scaleConfigs maps a -scale flag to the corpus and protocol parameters
// the networked subcommands share. serve, party and query must agree on
// both for their sketches to line up.
func scaleConfigs(scale string, seed int64) (corpus.Config, core.Params, error) {
	ccfg := corpus.DefaultConfig()
	params := core.DefaultParams()
	switch scale {
	case "default":
	case "test":
		ccfg = corpus.TestConfig()
		params.W = 128
		params.Z = 12
		params.Z1 = 6
		params.K = 20
	default:
		return ccfg, params, fmt.Errorf("unknown scale %q", scale)
	}
	ccfg.Seed = seed
	return ccfg, params, nil
}

// baseURL turns a HOST:PORT address into the http:// URL the gateway
// client wants; a full URL passes through.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
}

// listenHTTP serves h on addr in the background and returns the server
// to Close and the address it bound.
func listenHTTP(addr string, h http.Handler) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "http gateway:", err)
		}
	}()
	return hs, ln.Addr(), nil
}

// startDebug serves /metrics, /debug/vars and /debug/pprof on addr when
// non-empty and returns a closer (no-op when disabled).
func startDebug(reg *telemetry.Registry, addr string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	ds, err := telemetry.ServeDebug(reg, addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)\n", ds.Addr)
	return func() { _ = ds.Close() }, nil
}

// partyCmd hosts one party in its own process (the fully distributed
// topology): it generates that party's slice of the shared synthetic
// corpus, ingests it and serves the owner endpoints over HTTP. A
// coordinator registers it with Server.RegisterHTTPRemote ('csfltr serve
// -remote').
func partyCmd(args []string) error {
	fs := flag.NewFlagSet("party", flag.ExitOnError)
	name := fs.String("name", "B", "party name (A, B, C, D selects the corpus slice)")
	addr := fs.String("addr", "127.0.0.1:7071", "listen address")
	scale := fs.String("scale", "default", "test or default (must match the federation's)")
	seed := fs.Int64("seed", 1, "corpus seed (must match the federation's)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (optional)")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning
	cfg, params, err := scaleConfigs(*scale, *seed)
	if err != nil {
		return err
	}
	if len(*name) != 1 || (*name)[0] < 'A' || int((*name)[0]-'A') >= cfg.NumParties {
		return fmt.Errorf("party name must be one of A..%c", 'A'+cfg.NumParties-1)
	}
	idx := int((*name)[0] - 'A')
	fmt.Println("generating corpus slice for party", *name, "...")
	c, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	p, err := federation.NewParty(*name, federation.PartyConfig{
		Params:  params,
		Seed:    demoSeed,
		RNGSeed: *seed + int64(idx)*1000,
	})
	if err != nil {
		return err
	}
	if err := p.IngestAllParallel(c.Parties[idx].Docs, 0); err != nil {
		return err
	}
	// A private coordinator containing only this party: the silo keeps
	// its sketches on its own machine and the central one merely relays.
	local := federation.NewServer()
	if err := local.Register(p); err != nil {
		return err
	}
	host, bound, err := listenHTTP(*addr, federation.HTTPHandler(local))
	if err != nil {
		return err
	}
	defer host.Close()
	stopDebug, err := startDebug(local.Metrics(), *debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()
	fmt.Printf("party %s hosting %d documents on %s (Ctrl-C to stop)\n",
		*name, p.NumDocs(), bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return nil
}

// pipelineConfig builds the simulation configuration for train/eval/demo.
func pipelineConfig(scale string, seed int64) (experiments.PipelineConfig, error) {
	cfg := experiments.DefaultPipelineConfig()
	switch scale {
	case "default":
	case "test":
		cfg = experiments.TestPipelineConfig()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	cfg.Seed = seed
	cfg.Corpus.Seed = seed
	cfg.Corpus.LabelNoise = []float64{0, 0, 0.6, 0.6}
	return cfg, nil
}

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	scale := fs.String("scale", "default", "test or default")
	seed := fs.Int64("seed", 1, "simulation seed")
	modelPath := fs.String("model", "csfltr-model.bin", "output model file")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning
	cfg, err := pipelineConfig(*scale, *seed)
	if err != nil {
		return err
	}
	fmt.Println("building federation and augmenting data...")
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return err
	}
	trained, err := experiments.TrainCSFLTR(p)
	if err != nil {
		return err
	}
	f, err := os.Create(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := trained.WriteTo(f); err != nil {
		return err
	}
	fmt.Printf("trained CS-F-LTR model saved to %s\n", *modelPath)
	fmt.Printf("test metrics: ERR=%.3f nDCG@10=%.3f nDCG=%.3f\n",
		trained.TestMetrics.ERR, trained.TestMetrics.NDCG10, trained.TestMetrics.NDCG)
	return nil
}

func evalCmd(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	scale := fs.String("scale", "default", "test or default")
	seed := fs.Int64("seed", 1, "corpus seed to evaluate against")
	modelPath := fs.String("model", "csfltr-model.bin", "model file to load")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning
	cfg, err := pipelineConfig(*scale, *seed)
	if err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	trained, err := experiments.ReadTrainedModel(f)
	if err != nil {
		return err
	}
	fmt.Println("generating evaluation corpus...")
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return err
	}
	m := experiments.EvaluateTrained(trained, p)
	fmt.Printf("metrics on seed %d test set: ERR=%.3f nDCG@10=%.3f nDCG=%.3f\n",
		*seed, m.ERR, m.NDCG10, m.NDCG)
	return nil
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	scale := fs.String("scale", "default", "test or default")
	seed := fs.Int64("seed", 1, "simulation seed")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning
	cfg := experiments.DefaultPipelineConfig()
	if *scale == "test" {
		cfg = experiments.TestPipelineConfig()
	}
	cfg.Seed = *seed
	cfg.Corpus.Seed = *seed
	cfg.Corpus.LabelNoise = []float64{0, 0, 0.6, 0.6}
	fmt.Println("running CS-F-LTR end-to-end simulation...")
	p, err := experiments.NewPipeline(cfg)
	if err != nil {
		return err
	}
	res, err := experiments.RunTable1(p)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable1(res))
	return nil
}

// demoSeed is the fixed hash seed serve and query agree on out of band;
// a deployed federation derives it with the Diffie-Hellman ceremony
// instead (see package keyex).
const demoSeed = 0xC5F17A

// remoteFlags collects repeated -remote NAME=ADDR flags.
type remoteFlags []string

func (r *remoteFlags) String() string { return strings.Join(*r, ",") }
func (r *remoteFlags) Set(v string) error {
	if name, addr, ok := strings.Cut(v, "="); !ok || name == "" || addr == "" {
		return fmt.Errorf("want NAME=ADDR, got %q", v)
	}
	*r = append(*r, v)
	return nil
}

// probeParty asks the host at base for its roster once and reports an
// error unless it answers and lists name. Building an HTTP owner view
// does no I/O; this is the start-up check a dial used to give, so an
// unreachable or mis-named silo fails here and not at the first query.
func probeParty(base, name string) error {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(base + "/v1/parties")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/parties: status %d", resp.StatusCode)
	}
	var roster struct {
		Parties []string `json:"parties"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&roster); err != nil {
		return fmt.Errorf("GET /v1/parties: %w", err)
	}
	if !slices.Contains(roster.Parties, name) {
		return fmt.Errorf("host serves parties %v, not %s", roster.Parties, name)
	}
	return nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	scale := fs.String("scale", "default", "test or default")
	seed := fs.Int64("seed", 1, "corpus seed")
	httpAddr := fs.String("http", "127.0.0.1:7070", "listen address of the HTTP gateway (party endpoints, POST /v1/search, GET /v1/metrics)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (optional)")
	trace := fs.Bool("trace", false, "enable the distributed-tracing flight recorder and run demo searches (inspect with 'csfltr trace')")
	shards := fs.Int("shards", 0, "partition each local party's corpus across this many owner shards (0/1 = one shard; with one replica, a 1 x 1 group: one owner, called directly)")
	replicas := fs.Int("replicas", 0, "read replicas per shard (0 = 1; >= 2 enables failover)")
	var remotes remoteFlags
	fs.Var(&remotes, "remote", "party-hosted silo to relay to, NAME=ADDR (repeatable; see 'csfltr party')")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning

	cfg, params, err := scaleConfigs(*scale, *seed)
	if err != nil {
		return err
	}
	params.Shards = *shards
	params.Replicas = *replicas
	fmt.Println("generating corpus...")
	c, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	remoteNames := map[string]string{}
	for _, spec := range remotes {
		name, raddr, _ := strings.Cut(spec, "=")
		remoteNames[name] = raddr
	}
	server := federation.NewServer()
	if *trace {
		server.EnableTracing(federation.TraceConfig{EventCapacity: 256})
	}
	var locals []*federation.Party
	for i := 0; i < cfg.NumParties; i++ {
		name := string(rune('A' + i))
		if raddr, remote := remoteNames[name]; remote {
			base := baseURL(raddr)
			err := server.RegisterHTTPRemote(name, base, nil)
			if err == nil {
				err = probeParty(base, name)
			}
			if err != nil {
				return fmt.Errorf("registering remote %s=%s: %w", name, raddr, err)
			}
			fmt.Printf("party %s relayed from %s\n", name, raddr)
			continue
		}
		party, err := federation.NewParty(name, federation.PartyConfig{
			Params:  params,
			Seed:    demoSeed,
			RNGSeed: *seed + int64(i)*1000,
		})
		if err != nil {
			return err
		}
		fmt.Printf("ingesting %d documents for party %s...\n", len(c.Parties[i].Docs), name)
		if err := party.IngestAllParallel(c.Parties[i].Docs, 0); err != nil {
			return err
		}
		if err := server.Register(party); err != nil {
			return err
		}
		locals = append(locals, party)
	}
	var fed *federation.Federation
	if len(locals) == cfg.NumParties {
		// All parties in-process: attach the federated search entry
		// point so the gateway serves POST /v1/search, with admission
		// control bounding concurrent fan-outs.
		fed = federation.Assemble(server, locals, params, demoSeed)
		server.SetAdmission(federation.AdmissionConfig{})
	}
	hs, bound, err := listenHTTP(*httpAddr, federation.HTTPHandler(server))
	if err != nil {
		return err
	}
	defer hs.Close()
	fmt.Printf("serving federation on http://%s (try GET /v1/metrics)\n", bound)
	stopDebug, err := startDebug(server.Metrics(), *debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()
	fmt.Println("sample query terms (salient topic terms):")
	for t := 0; t < 3 && t < len(c.Topics()); t++ {
		fmt.Printf("  topic %d: %v\n", t, c.Topics()[t][:5])
	}
	if *trace && len(locals) >= 2 {
		// Seed the flight recorder so `csfltr trace` (and the /v1/trace,
		// /v1/audit routes) have something to show: one federated search
		// per sampled topic, issued by the first local party.
		if fed == nil {
			fed = federation.Assemble(server, locals, params, demoSeed)
		}
		for t := 0; t < 3 && t < len(c.Topics()); t++ {
			topic := c.Topics()[t]
			terms := make([]uint64, 0, 3)
			for _, id := range topic[:min(3, len(topic))] {
				terms = append(terms, uint64(id))
			}
			res, traceID, err := fed.SearchTraced(locals[0].Name, terms, params.K)
			if err != nil {
				return fmt.Errorf("trace demo search (topic %d): %w", t, err)
			}
			fmt.Printf("traced demo search: topic %d -> %d hits, trace %s\n",
				t, len(res.Hits), traceID)
		}
		fmt.Printf("inspect with: csfltr trace -http %s [-id TRACE]\n", bound)
	}
	fmt.Println("press Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	return nil
}

func query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address (HOST:PORT or URL)")
	party := fs.String("party", "B", "document-owner party to query")
	term := fs.Uint64("term", 0, "term id to search for")
	k := fs.Int("k", 10, "result count")
	naive := fs.Bool("naive", false, "use the NAIVE algorithm instead of RTK")
	scale := fs.String("scale", "default", "test or default (must match the server's)")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning

	_, params, err := scaleConfigs(*scale, 1)
	if err != nil {
		return err
	}
	querier, err := core.NewQuerier(params, demoSeed, rand.New(rand.NewSource(99)))
	if err != nil {
		return err
	}
	base := baseURL(*addr)
	if err := probeParty(base, *party); err != nil {
		return err
	}
	remote := federation.NewHTTPOwner(base, *party, federation.FieldBody, nil)
	var (
		results []core.DocCount
		cost    core.Cost
	)
	if *naive {
		results, cost, err = core.NaiveReverseTopK(querier, remote, *term, *k)
	} else {
		results, cost, err = core.RTKReverseTopK(querier, remote, *term, *k)
	}
	if err != nil {
		return err
	}
	algo := "RTK"
	if *naive {
		algo = "NAIVE"
	}
	fmt.Printf("%s reverse top-%d for term %d at party %s (%d msgs, %d B down):\n",
		algo, *k, *term, *party, cost.Messages, cost.BytesReceived)
	for i, dc := range results {
		fmt.Printf("  %2d. doc %-6d est. count %.1f\n", i+1, dc.DocID, dc.Count)
	}
	if len(results) == 0 {
		fmt.Println("  (no documents matched)")
	}
	return nil
}
