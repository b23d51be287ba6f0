// Command mstxvet runs the project-invariant analyzers of
// internal/analysis over the repository and prints vet-style
// file:line:col diagnostics. It exits non-zero when any finding
// survives suppression, which makes it a pre-merge gate (scripts/
// check.sh runs it over ./...).
//
// Usage:
//
//	mstxvet [-root dir] [-list] [-json] [-workers n] [patterns ...]
//
// Patterns follow the go tool convention: a directory path, or a
// path ending in /... for a recursive walk. The default is ./...
// relative to -root (default: current directory). -json emits the
// findings as a JSON array of {file,line,col,analyzer,message}
// objects ("[]" on a clean run) for toolchain consumption; -workers
// bounds the parallel analysis pool (0 = all CPUs) without changing
// the findings or their order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mstx/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstxvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "print the analyzer catalog and exit")
		root    = fs.String("root", ".", "module root to analyze (directory containing go.mod)")
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array of {file,line,col,analyzer,message}")
		workers = fs.Int("workers", 0, "parallel analysis workers (0 = all CPUs); findings are identical for any value")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mstxvet [-root dir] [-list] [-json] [-workers n] [patterns ...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.Catalog()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.ExpandDirs(*root, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "mstxvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Vet(analysis.Config{
		Root:    *root,
		Dirs:    dirs,
		Workers: *workers,
	}, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "mstxvet: %v\n", err)
		return 2
	}
	if *jsonOut {
		type finding struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "mstxvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
