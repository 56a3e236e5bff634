package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// selfCheck is the A/A noise check: it runs every workload `runs` times
// (seeds seed, seed+1, ...) as its own OS process, one after the other,
// then does the same again on the same code, and prints per workload and
// end-to-end metric the relative difference of the two sets' medians and
// each set's spread (interquartile distance over median) beside the
// metric's bound. Any excess makes it fail.
func selfCheck(runs int, seed int64, seconds int, scaleName string) error {
	bounds, err := loadBounds()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	digests := [2]map[string]string{{}, {}}
	for set := range sets {
		for _, w := range workloads {
			for i := 0; i < runs; i++ {
				s := seed + int64(i)
				out, err := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.Itoa(seconds), "-scale", scaleName).Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				res, digest, err := parseResult(out)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", w.name, s, res.Correct, res.Failed)
				}
				for name, v := range res.Metrics {
					sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], v.Value)
				}
				id := w.name + "/" + strconv.FormatInt(s, 10)
				digests[set][id] = digest
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w.name, s)
			}
		}
	}
	failed := 0
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := sets[0][key{w.name, m.name}], sets[1][key{w.name, m.name}]
			bd := bounds[m.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if bd.better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > bd.bound || (m.name != "setup_s" && (sa > bd.bound || sb > bd.bound)) {
				verdict = "EXCESS"
				failed++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.4f | %.4f | %.4f | %.2f | %s |\n",
				w.name, m.name, ma, mb, worse, sa, sb, bd.bound, verdict)
		}
	}
	ids := make([]string, 0, len(digests[0]))
	for id := range digests[0] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if digests[1][id] != digests[0][id] {
			fmt.Printf("result_digest of %s differs between the sets: %s vs %s\n", id, digests[0][id], digests[1][id])
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d excesses", failed)
	}
	return nil
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles
// (exclusive method) that the driver uses.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile cut, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// result is the one-line JSON a run prints last.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func parseResult(out []byte) (result, string, error) {
	var res result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, "", fmt.Errorf("last line is not a result: %w", err)
	}
	digest := ""
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "result_digest="); ok {
			digest = d
		}
	}
	return res, digest, nil
}

type metricBound struct {
	better string
	bound  float64
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json, looked up
// in the working directory and its parent.
func loadBounds() (map[string]metricBound, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	out := make(map[string]metricBound)
	for _, m := range spec.EndToEnd {
		out[m.Name] = metricBound{m.Better, m.Bound}
	}
	return out, nil
}
