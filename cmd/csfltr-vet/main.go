// Command csfltr-vet runs the project's static-analysis suite (see
// internal/analysis): interprocedural privacy-boundary taint for
// //csfltr:private data, lock-hold concurrency hygiene,
// determinism and budget-flow contracts, nondeterministic map-iteration
// output, dropped errors, and unbounded metric-label cardinality.
//
// Usage:
//
//	csfltr-vet [-list] [-json] [-annotate] [-root dir] [packages]
//
// packages are Go package patterns relative to the module root
// (default "./..."). The exit status is 1 when any diagnostic is
// reported, 2 on operational errors, 0 otherwise — so it slots into CI
// next to go vet. Suppress an intentional finding at its line with
//
//	//csfltr:allow <analyzer> -- <justification>
//
// (the justification is mandatory; a bare allow is itself a finding).
//
// -json emits one JSON object per finding (file/line/col/analyzer/
// message/chain) for tooling; -annotate emits GitHub Actions
// `::error file=...` workflow commands so findings surface inline on
// pull requests. The two can be combined: annotations go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"csfltr/internal/analysis"
)

// jsonDiagnostic is the stable -json wire shape of one finding.
type jsonDiagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	root := flag.String("root", "", "module root (default: nearest go.mod above the working directory)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON Lines on stdout")
	annotate := flag.Bool("annotate", false, "emit GitHub Actions ::error annotations on stderr")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		dir, err = analysis.FindModuleRoot(cwd)
		if err != nil {
			fatal(err)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analysis.Run(dir, patterns, analysis.All())
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		switch {
		case *jsonOut:
			if err := enc.Encode(jsonDiagnostic{
				File:     relToRoot(dir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Chain:    d.Chain,
			}); err != nil {
				fatal(err)
			}
		default:
			fmt.Println(d)
		}
		if *annotate {
			fmt.Fprintf(os.Stderr, "::error file=%s,line=%d,col=%d,title=csfltr-vet %s::%s\n",
				relToRoot(dir, d.Pos.Filename), d.Pos.Line, d.Pos.Column,
				d.Analyzer, escapeAnnotation(d.Message))
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "csfltr-vet: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// relToRoot makes filenames repo-relative so GitHub can anchor the
// annotation to the diff; absolute paths outside root pass through.
func relToRoot(root, file string) string {
	if rest, ok := strings.CutPrefix(file, root+string(os.PathSeparator)); ok {
		return rest
	}
	return file
}

// escapeAnnotation encodes the characters GitHub workflow commands
// reserve in message data.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csfltr-vet:", err)
	os.Exit(2)
}
