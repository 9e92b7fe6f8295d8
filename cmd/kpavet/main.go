// Command kpavet runs the repo-invariant static-analysis suite: the
// contracts this reproduction rests on — exact rational probabilities,
// immutable rat.Rat values, shard bodies that write only their own part —
// machine-checked on every build. Two contracts need no analyzer because
// the API holds them: a system.DenseSet is read-only outside
// internal/system, and logic.Engine.Sweep gives back every worker it
// lends. See docs/LINTING.md.
//
// Usage:
//
//	kpavet [-root dir] [-run analyzer,...] [-list] [./...]
//
// kpavet always analyzes the whole module containing -root (default: the
// enclosing module of the working directory); the ./... argument is
// accepted for familiarity. -run restricts the run to a comma-separated
// subset of the roster (handy while iterating on one analyzer); -list
// lists the selected analyzers, so `kpavet -run ctxflow -list` shows
// exactly what would run. It prints one line per violation,
//
//	file:line: [analyzer] message
//
// and exits 1 if there were any violations, 2 if the module failed to
// load, 0 when clean.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kpa/internal/analysis"
	"kpa/internal/analysis/bigimport"
	"kpa/internal/analysis/cancelpoll"
	"kpa/internal/analysis/ctxflow"
	"kpa/internal/analysis/driver"
	"kpa/internal/analysis/errkind"
	"kpa/internal/analysis/floatprob"
	"kpa/internal/analysis/goleak"
	"kpa/internal/analysis/lockguard"
	"kpa/internal/analysis/maprange"
	"kpa/internal/analysis/ratmut"
	"kpa/internal/analysis/shardsafe"
)

func defaultAnalyzers() []analysis.Analyzer {
	return []analysis.Analyzer{
		bigimport.New(),
		cancelpoll.New(),
		ctxflow.New(),
		errkind.New(),
		floatprob.New(),
		goleak.New(),
		lockguard.New(),
		maprange.New(),
		ratmut.New(),
		shardsafe.New(),
	}
}

// selectAnalyzers filters the roster to the comma-separated names in
// spec, preserving roster order. An empty spec keeps the whole roster;
// an unknown name is an error listing the valid roster.
func selectAnalyzers(roster []analysis.Analyzer, spec string) ([]analysis.Analyzer, error) {
	if spec == "" {
		return roster, nil
	}
	wanted := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, a := range roster {
			if a.Name() == name {
				known = true
				break
			}
		}
		if !known {
			var names []string
			for _, a := range roster {
				names = append(names, a.Name())
			}
			return nil, fmt.Errorf("unknown analyzer %q in -run (roster: %s)", name, strings.Join(names, ", "))
		}
		wanted[name] = true
	}
	if len(wanted) == 0 {
		return roster, nil
	}
	var selected []analysis.Analyzer
	for _, a := range roster {
		if wanted[a.Name()] {
			selected = append(selected, a)
		}
	}
	return selected, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kpavet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root to analyze (default: the module containing the working directory)")
	list := fs.Bool("list", false, "list the analyzers and the contracts they enforce, then exit")
	runSpec := fs.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(defaultAnalyzers(), *runSpec)
	if err != nil {
		fmt.Fprintf(stderr, "kpavet: %v\n", err)
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	for _, pattern := range fs.Args() {
		if pattern != "./..." {
			fmt.Fprintf(stderr, "kpavet: unsupported pattern %q: the whole module is always analyzed (use ./...)\n", pattern)
			return 2
		}
	}
	if *root == "" {
		found, err := findModuleRoot()
		if err != nil {
			fmt.Fprintf(stderr, "kpavet: %v\n", err)
			return 2
		}
		*root = found
	}
	diags, err := driver.Run(driver.Config{Root: *root, Analyzers: analyzers})
	if err != nil {
		fmt.Fprintf(stderr, "kpavet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", d.File, d.Line, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "kpavet: %d contract violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks from the working directory up to the nearest
// directory containing go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
