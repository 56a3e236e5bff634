// Command expbench regenerates the tables and figures of the CS-F-LTR
// paper's evaluation section (see EXPERIMENTS.md for the mapping and
// recorded results). Systems numbers — latency, allocations, bytes,
// epsilon per operation — come from `bash benchmark/run.sh`, not from
// here.
//
// Usage:
//
//	expbench -exp table1            # Table I
//	expbench -exp fig4-alpha        # Fig. 4, impact of alpha
//	expbench -exp fig4              # all five Fig. 4 columns
//	expbench -exp fig5              # Fig. 5 panels + separability probes
//	expbench -exp fig6a             # Fig. 6a, privacy budget sweep
//	expbench -exp fig6b             # Fig. 6b, number-of-parties sweep
//	expbench -exp headline          # Section VI-D NAIVE vs RTK headline
//	expbench -exp traffic           # server-relayed bytes, NAIVE vs RTK
//	expbench -exp ablation          # estimator + aggregator ablations
//	expbench -exp sse               # encryption-based comparator
//	expbench -exp all               # everything
//
// -scale selects the workload size: "test" (seconds), "default"
// (minutes, the shape-faithful laptop scale) or "paper" for Fig. 4 /
// headline at the paper's document counts.
// -csv DIR additionally writes CSV series and Fig. 5 SVG panels;
// -json FILE writes one machine-readable report covering the run.
// -debug-addr HOST:PORT serves Prometheus /metrics, an expvar-style
// /debug/vars snapshot and /debug/pprof for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"csfltr/internal/experiments"
	"csfltr/internal/telemetry"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run: "+strings.Join(experimentNames(), ", ")+" or all")
		scale     = flag.String("scale", "default", "workload scale: test, default or paper")
		csvDir    = flag.String("csv", "", "directory to write CSV series into (optional)")
		jsonOut   = flag.String("json", "", "file to write a machine-readable JSON report into (optional)")
		seed      = flag.Int64("seed", 1, "experiment seed")
		scatter   = flag.Bool("scatter", false, "print ASCII scatter plots for fig5 panels")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while experiments run (optional)")
	)
	flag.Parse()
	if err := run(*exp, *scale, *csvDir, *jsonOut, *seed, *scatter, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "expbench:", err)
		os.Exit(1)
	}
}

// configs returns the scale-adjusted configurations.
func configs(scale string, seed int64) (experiments.PipelineConfig, experiments.Fig4Config, experiments.Fig5Config, error) {
	var pipe experiments.PipelineConfig
	var fig4 experiments.Fig4Config
	var fig5 experiments.Fig5Config
	switch scale {
	case "test":
		pipe = experiments.TestPipelineConfig()
		fig4 = experiments.TestFig4Config()
		fig5 = experiments.TestFig5Config()
	case "default":
		pipe = experiments.DefaultPipelineConfig()
		// Parties C and D hold noisier labels, reproducing Table I's
		// data-quality divergence.
		pipe.Corpus.LabelNoise = []float64{0, 0, 0.6, 0.6}
		fig4 = experiments.DefaultFig4Config()
		fig5 = experiments.DefaultFig5Config()
	case "paper":
		pipe = experiments.DefaultPipelineConfig()
		pipe.Corpus.LabelNoise = []float64{0, 0, 0.6, 0.6}
		fig4 = experiments.DefaultFig4Config()
		fig4.Docs = 36400 // the paper's per-party document count
		fig4.DocLen = 1000
		fig4.NaiveTerms = 1
		fig5 = experiments.DefaultFig5Config()
	default:
		return pipe, fig4, fig5, fmt.Errorf("unknown scale %q", scale)
	}
	pipe.Seed = seed
	fig4.Seed = seed
	fig5.Seed = seed
	pipe.Corpus.Seed = seed
	fig5.Corpus.Seed = seed
	return pipe, fig4, fig5, nil
}

// env is what one experiment reads (configurations, output options) and
// writes (the report).
type env struct {
	pipe    experiments.PipelineConfig
	fig4    experiments.Fig4Config
	fig5    experiments.Fig5Config
	csvDir  string
	scatter bool
	report  *experiments.Report
}

var fig4Params = []string{"alpha", "beta", "k", "w", "z"}

// runners maps every -exp name except "all" to its experiment. The flag
// help and the unknown-name error are built from its keys, so a mode
// cannot be runnable but unlisted.
var runners = func() map[string]func(*env) error {
	m := map[string]func(*env) error{
		"table1": runTable1,
		"fig5":   runFig5,
		"fig6a":  runFig6a,
		"fig6b":  runFig6b,
		"fig4": func(e *env) error {
			for _, p := range fig4Params {
				if err := runFig4(e, p); err != nil {
					return err
				}
			}
			return nil
		},
		"headline": runHeadline,
		"ablation": runAblation,
		"sse":      runSSE,
		"traffic":  runTraffic,
	}
	for _, p := range fig4Params {
		p := p
		m["fig4-"+p] = func(e *env) error { return runFig4(e, p) }
	}
	return m
}()

// experimentNames returns the sorted -exp names, "all" excluded.
func experimentNames() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(exp, scale, csvDir, jsonOut string, seed int64, scatter bool, debugAddr string) error {
	pipe, fig4, fig5, err := configs(scale, seed)
	if err != nil {
		return err
	}
	// One shared registry: every pipeline's federation records into it, so
	// the debug endpoint sees the whole run's relay and latency series.
	reg := telemetry.NewRegistry()
	pipe.Metrics = reg
	if debugAddr != "" {
		ds, err := telemetry.ServeDebug(reg, debugAddr)
		if err != nil {
			return err
		}
		defer ds.Close()
		fmt.Printf("debug endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)\n", ds.Addr)
	}
	report := experiments.NewReport(map[string]string{
		"scale": scale,
		"seed":  fmt.Sprint(seed),
	})
	e := &env{pipe: pipe, fig4: fig4, fig5: fig5, csvDir: csvDir, scatter: scatter, report: report}

	writeReport := func() error {
		if jsonOut == "" || report.Len() == 0 {
			return nil
		}
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		fmt.Println("wrote", jsonOut)
		return nil
	}

	if exp == "all" {
		for _, n := range experimentNames() {
			if strings.HasPrefix(n, "fig4-") {
				continue // covered by "fig4"
			}
			if err := runners[n](e); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Println()
		}
		return writeReport()
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q (valid: %s, all)", exp, strings.Join(experimentNames(), ", "))
	}
	if err := r(e); err != nil {
		return err
	}
	return writeReport()
}

func runHeadline(e *env) error {
	res, err := experiments.RunHeadline(e.fig4)
	if err != nil {
		return err
	}
	fmt.Println("== Headline (Section VI-D): NAIVE vs RTK ==")
	fmt.Print(experiments.RenderHeadline(res))
	e.report.Add("headline", res)
	return nil
}

func runAblation(e *env) error {
	fmt.Println("== Ablation: RTK candidate estimator (zero-fill vs paper-literal) ==")
	for _, param := range []string{"alpha", "beta"} {
		ab, err := experiments.RunEstimatorAblation(e.fig4, param, experiments.PaperFig4Sweeps()[param])
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderEstimatorAblation(ab))
		fmt.Println()
		e.report.Add("ablation-estimator-"+param, ab)
	}
	fmt.Println("== Ablation: federated aggregation strategy ==")
	p, err := experiments.NewPipeline(e.pipe)
	if err != nil {
		return err
	}
	agg, err := experiments.RunAggregatorAblation(p)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderAggregatorAblation(agg))
	e.report.Add("ablation-aggregator", agg)
	return nil
}

func runSSE(e *env) error {
	cfg := e.fig4
	if cfg.Docs > 8000 {
		cfg.Docs = 8000
	}
	res, err := experiments.RunSSEComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Comparator: searchable symmetric encryption vs sketches ==")
	fmt.Print(experiments.RenderSSEComparison(res))
	e.report.Add("sse", res)
	return nil
}

func runTraffic(e *env) error {
	cfg := e.fig4
	if cfg.Docs > 4000 {
		cfg.Docs = 4000 // traffic shape saturates; keep it quick
	}
	res, err := experiments.RunTrafficComparison(cfg)
	if err != nil {
		return err
	}
	fmt.Println("== Server-relayed traffic for one reverse top-K ==")
	fmt.Printf("NAIVE: %d messages, %.1f KB\n", res.NaiveTraffic.Messages, float64(res.NaiveTraffic.Bytes)/1024)
	fmt.Printf("RTK:   %d messages, %.1f KB\n", res.RTKTraffic.Messages, float64(res.RTKTraffic.Bytes)/1024)
	e.report.Add("traffic", res)
	return nil
}

func runTable1(e *env) error {
	fmt.Println("== Table I: LTR model performance ==")
	p, err := experiments.NewPipeline(e.pipe)
	if err != nil {
		return err
	}
	res, err := experiments.RunTable1(p)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderTable1(res))
	e.report.Add("table1", res)
	return nil
}

func runFig4(e *env, param string) error {
	fmt.Printf("== Fig. 4: impact of %s (docs=%d) ==\n", param, e.fig4.Docs)
	points, err := experiments.RunFig4Sweep(e.fig4, param, experiments.PaperFig4Sweeps()[param])
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFig4(points))
	e.report.Add("fig4-"+param, points)
	if e.csvDir != "" {
		path := filepath.Join(e.csvDir, "fig4-"+param+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteFig4CSV(f, points); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func runFig5(e *env) error {
	fmt.Println("== Fig. 5: sketch strategy separability ==")
	panels, err := experiments.RunFig5(e.fig5, experiments.PaperFig5Strategies())
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFig5(panels))
	probes := make(map[string]any, len(panels))
	for _, p := range panels {
		probes[p.Strategy.Name] = p.Probes
	}
	e.report.Add("fig5-probes", probes)
	if e.scatter {
		for _, p := range panels {
			fmt.Printf("\n[%s] (o = relevant, . = irrelevant, 8 = overlap)\n", p.Strategy.Name)
			fmt.Print(experiments.Scatter(p.Points, p.Labels, 72, 20))
		}
	}
	if e.csvDir != "" {
		for _, p := range panels {
			path := filepath.Join(e.csvDir, "fig5-"+p.Strategy.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := experiments.WriteFig5PointsCSV(f, p); err != nil {
				_ = f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", path)

			svgPath := filepath.Join(e.csvDir, "fig5-"+p.Strategy.Name+".svg")
			sf, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			if err := experiments.WriteFig5SVG(sf, p, 360, 300); err != nil {
				_ = sf.Close()
				return err
			}
			if err := sf.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", svgPath)
		}
	}
	return nil
}

func runFig6a(e *env) error {
	fmt.Println("== Fig. 6a: impact of privacy budget ==")
	points, err := experiments.RunFig6a(e.pipe, []float64{0, 0.5, 1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFig6a(points))
	e.report.Add("fig6a", points)
	return nil
}

func runFig6b(e *env) error {
	fmt.Println("== Fig. 6b: impact of number of parties ==")
	points, err := experiments.RunFig6b(e.pipe, []int{1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderFig6b(points))
	e.report.Add("fig6b", points)
	return nil
}
