package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"csfltr/internal/federation"
	"csfltr/internal/telemetry"
)

// traceCmd inspects a serving federation's flight recorder over the
// HTTP gateway: without -id it lists the audit ledger (one line per
// federated query); with -id it dumps that query's span tree, and with
// -chrome additionally writes the tree as Chrome trace-event JSON for
// chrome://tracing / Perfetto.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	gw := fs.String("http", "127.0.0.1:7070", "HTTP gateway address (see 'csfltr serve -http')")
	id := fs.String("id", "", "trace id to dump (omit to list the audit ledger)")
	chrome := fs.String("chrome", "", "also write the dumped trace as Chrome trace-event JSON to this file")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning
	base := "http://" + *gw
	if *id == "" {
		return traceList(base)
	}
	return traceDump(base, *id, *chrome)
}

// getJSON fetches one gateway route into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s (is the server running with -trace?)", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// traceList prints the audit ledger, newest last.
func traceList(base string) error {
	var body struct {
		Records []federation.AuditRecord `json:"records"`
	}
	if err := getJSON(base+"/v1/audit", &body); err != nil {
		return err
	}
	if len(body.Records) == 0 {
		fmt.Println("audit ledger is empty — run a federated search first")
		return nil
	}
	fmt.Printf("%-16s %-7s %-8s %6s %-14s %8s %10s %8s\n",
		"trace", "op", "querier", "terms", "outcome", "epsilon", "bytes", "ms")
	for _, r := range body.Records {
		fmt.Printf("%-16s %-7s %-8s %6d %-14s %8.2f %10d %8.1f\n",
			r.TraceID, r.Op, r.Querier, r.Terms, r.Outcome, r.EpsilonSpent,
			r.Bytes, float64(r.DurationNanos)/1e6)
	}
	fmt.Printf("%d records; dump one with: csfltr trace -http %s -id TRACE\n",
		len(body.Records), strings.TrimPrefix(base, "http://"))
	return nil
}

// traceDump prints one trace's span tree and audit summary.
func traceDump(base, id, chromePath string) error {
	var body struct {
		TraceID string                  `json:"trace_id"`
		Spans   []telemetry.SpanRecord  `json:"spans"`
		Audit   *federation.AuditRecord `json:"audit"`
	}
	if err := getJSON(base+"/v1/trace/"+id, &body); err != nil {
		return err
	}
	fmt.Printf("trace %s: %d spans\n", body.TraceID, len(body.Spans))
	printSpanTree(body.Spans)
	if a := body.Audit; a != nil {
		fmt.Printf("audit: op=%s querier=%s terms=%d outcome=%s epsilon=%.2f bytes=%d (%0.1f ms)\n",
			a.Op, a.Querier, a.Terms, a.Outcome, a.EpsilonSpent, a.Bytes,
			float64(a.DurationNanos)/1e6)
		for _, p := range a.Parties {
			fmt.Printf("  party %-8s %-10s %-9s queries=%d cached=%d retries=%d epsilon=%.2f\n",
				p.Party, p.Transport, p.Outcome, p.Queries, p.Cached, p.Retries, p.Epsilon)
		}
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := telemetry.WriteChromeTrace(f, body.Spans); err != nil {
			return err
		}
		fmt.Println("wrote", chromePath, "— open in chrome://tracing or ui.perfetto.dev")
	}
	return nil
}

// printSpanTree renders spans as an indented tree, children ordered by
// start time. Spans whose parent is missing (evicted or remote) root at
// the top level.
func printSpanTree(spans []telemetry.SpanRecord) {
	byID := make(map[string]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	children := make(map[string][]telemetry.SpanRecord)
	for _, s := range spans {
		parent := s.ParentID
		if !byID[parent] {
			parent = "" // orphan: promote to root
		}
		children[parent] = append(children[parent], s)
	}
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool {
			return kids[i].StartUnixNano < kids[j].StartUnixNano
		})
	}
	var walk func(parent, indent string)
	walk = func(parent, indent string) {
		for _, s := range children[parent] {
			fmt.Printf("%s%s (%s)%s\n", indent, s.Name,
				time.Duration(s.DurationNanos), renderAttrs(s.Attrs))
			walk(s.SpanID, indent+"  ")
		}
	}
	walk("", "  ")
}

// renderAttrs renders span attributes as a compact suffix.
func renderAttrs(attrs []telemetry.Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = a.Key + "=" + a.Value
	}
	return " [" + strings.Join(parts, " ") + "]"
}
