// Command benchmark is the repository's one repeatable benchmark: four
// deterministic single-client closed-loop workloads over the product
// layers, twelve end-to-end metrics each, and a traced run that dissects
// sampled ops through an outside-in ladder of public entry points. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: search_cold, gateway_zipf, augment_train or ingest_churn")
		seed      = flag.Int64("seed", 1, "seed of the corpus, the key agreement, the noise and the op list")
		seconds   = flag.Int("seconds", 12, "nominal duration of the timed passes together; sets the op count")
		trace     = flag.Int("trace", 0, "1: traced run, per-layer metrics and a Chrome trace; 0: end-to-end metrics")
		scaleName = flag.String("scale", "bench", "bench, or test for a tiny corpus and op list")
		deadline  = flag.Duration("deadline", 170*time.Second, "watchdog: abort with a non-zero code after this long")
		outDir    = flag.String("out", "benchmark/out", "directory the traced run writes <workload>.trace.json to")
		selfcheck = flag.Int("selfcheck", 0, "A/A noise check: run every workload this many times, twice, and compare the sets")
	)
	flag.Parse()
	sc := scaleBench
	switch *scaleName {
	case "bench":
	case "test":
		sc = scaleTest
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scaleName))
	}
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seed, *seconds, *scaleName); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	// The watchdog is the last line of defence against a hung listener
	// or a stuck op: nothing may keep the process alive past it.
	watchdog := time.AfterFunc(*deadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded the %v deadline\n", w.name, *deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds, sc, *outDir)
	} else {
		rep, err = runEndToEnd(w, *seed, *seconds, sc)
	}
	if err != nil {
		fatal(err)
	}
	printReport(rep, *seed, *seconds, *trace)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// printReport writes every metric by name and unit, the context lines,
// and last the one-line JSON result.
func printReport(rep *report, seed int64, seconds, trace int) {
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", rep.workload, seed, seconds, trace)
	fmt.Println("environment:", environment())
	for _, m := range rep.metrics {
		fmt.Printf("%-36s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if rep.digest != "" {
		fmt.Println("result_digest=" + rep.digest)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, make(map[string]value, len(rep.metrics))}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
