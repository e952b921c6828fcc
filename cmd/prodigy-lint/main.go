// Command prodigy-lint runs the repository's static-analysis suite: the
// simulator-invariant analyzers (determinism, errcheck), the
// interprocedural hot-path allocation check (hotpath-alloc, rooted at
// //hot:path functions), and the compiler-pass cross-check of every
// workload kernel's DIG registration (dig-drift). By-value lock copies
// are `go vet`'s copylocks check, which `make vet` runs on both modules.
// See docs/LINT.md.
//
// Usage:
//
//	prodigy-lint [-list] [-json] [-escape] [pattern ...]
//
// Patterns are ./..., ./dir/..., or ./dir, resolved against the module
// root; the default is ./... . -escape replaces the in-process suite
// with the escape-check contract pass (`go build -gcflags=-m=2` on the
// packages carrying //hot:inline or //hot:noescape directives). -json
// emits findings as a JSON array of {file,line,col,analyzer,message}.
// Exits 0 when clean, 1 when diagnostics are reported, 2 on a load
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"prodigy/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (file/line/col/analyzer/message)")
	escape := flag.Bool("escape", false, "run the escape-check contract pass instead of the in-process suite")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: prodigy-lint [-list] [-json] [-escape] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Println(a.Name())
		}
		fmt.Println("escape-check (via -escape)")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// unused-allow is only meaningful when every package that could match
	// a suppression is in the load set.
	wholeTree := false
	for _, p := range patterns {
		if p == "./..." || p == "..." {
			wholeTree = true
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	cfg, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fail(err)
	}
	dirs, err := lint.ExpandPatterns(cfg.Root, patterns)
	if err != nil {
		fail(err)
	}
	pkgs, err := lint.Load(cfg, dirs)
	if err != nil {
		fail(err)
	}

	var diags []lint.Diagnostic
	if *escape {
		diags, err = lint.EscapeCheck(cfg, pkgs, nil)
		if err != nil {
			fail(err)
		}
	} else {
		diags = lint.RunAll(pkgs, lint.RunConfig{Analyzers: analyzers, ReportUnused: wholeTree})
	}

	// Print paths relative to the working directory, like go vet.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = rel
		}
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
			out = append(out, finding{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "prodigy-lint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "prodigy-lint:", err)
	os.Exit(2)
}
