// Command kpacheck model-checks formulas of the Halpern–Tuttle logic over
// the library's example systems.
//
// Usage:
//
//	kpacheck -system introcoin -assign post -formula "K1^1/2 heads"
//	kpacheck -system die -assign fut -formula "K2 ((Pr2(even) >= 1) | (Pr2(even) <= 0))"
//	kpacheck -system ca2 -assign post -formula "C{1,2}^0.99 coordinated"
//	kpacheck -file mysystem.json -formula "K1 p"
//	kpacheck -system die -export die.json
//	kpacheck -list
//
// The tool evaluates the formula at every point of the system and reports
// validity plus counterexamples; with -points it prints the per-point truth
// table instead.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"kpa/internal/core"
	"kpa/internal/encode"
	"kpa/internal/logic"
	"kpa/internal/registry"
	"kpa/internal/system"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kpacheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kpacheck", flag.ContinueOnError)
	var (
		sysName = fs.String("system", "introcoin", "example system (see -list)")
		file    = fs.String("file", "", "load the system from a JSON description instead of -system")
		export  = fs.String("export", "", "write the selected system as JSON to this file and exit")
		dot     = fs.Bool("dot", false, "print the system's computation trees in Graphviz dot format and exit")
		repl    = fs.Bool("repl", false, "read formulas from stdin and evaluate them interactively")
		assign  = fs.String("assign", "post", "probability assignment: post, fut, prior, opp:J")
		formula = fs.String("formula", "", "formula to check (required unless -list or -props)")
		points  = fs.Bool("points", false, "print the per-point truth table")
		list    = fs.Bool("list", false, "list available systems and exit")
		props   = fs.Bool("props", false, "list the system's propositions and exit")
		maxRows = fs.Int("max", 40, "maximum rows printed for -points and counterexamples")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Println("available systems:")
		for _, n := range registry.Names() {
			fmt.Println("  " + n)
		}
		return nil
	}

	var entry registry.Entry
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		sys, propTable, err := encode.Decode(data)
		if err != nil {
			return err
		}
		entry = registry.Entry{Name: *file, Description: "loaded from " + *file, Sys: sys, Props: propTable}
	} else {
		var err error
		entry, err = registry.Lookup(*sysName)
		if err != nil {
			return err
		}
	}
	if *export != "" {
		data, err := encode.Marshal(encode.Encode(entry.Sys))
		if err != nil {
			return err
		}
		if err := os.WriteFile(*export, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *export, len(data))
		return nil
	}
	if *dot {
		fmt.Print(system.SystemDOT(entry.Sys))
		return nil
	}
	if *props {
		fmt.Printf("%s — %s\n", entry.Name, entry.Description)
		names := make([]string, 0, len(entry.Props))
		for n := range entry.Props {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("propositions:")
		for _, n := range names {
			fmt.Println("  " + n)
		}
		return nil
	}
	if *repl {
		sa, err := registry.Assignment(entry.Sys, *assign)
		if err != nil {
			return err
		}
		return runREPL(entry, sa, os.Stdin, os.Stdout)
	}
	if *formula == "" {
		return fmt.Errorf("-formula is required (or use -list / -props / -repl)")
	}

	f, err := logic.Parse(*formula)
	if err != nil {
		return err
	}
	sa, err := registry.Assignment(entry.Sys, *assign)
	if err != nil {
		return err
	}
	P := core.NewProbAssignment(entry.Sys, sa)
	e := logic.NewEvaluator(entry.Sys, P, entry.Props)

	total := entry.Sys.NumPoints()
	fmt.Printf("system   : %s — %s\n", entry.Name, entry.Description)
	fmt.Printf("           %d trees, %d points, synchronous=%v\n",
		len(entry.Sys.Trees()), total, entry.Sys.IsSynchronous())
	fmt.Printf("assign   : %s\n", sa.Name())
	fmt.Printf("formula  : %s\n", f)

	// The extension stays a bitset over the system's dense index, and rows
	// are printed in dense-ID order, (tree, run, time) with trees in the
	// system's order, so a large system never builds its map of points.
	ext, err := e.DenseExtension(f)
	if err != nil {
		return err
	}
	if *points {
		fmt.Println("points:")
		idx := ext.Index()
		for id := 0; id < total; id++ {
			if id >= *maxRows {
				fmt.Printf("  ... (%d more)\n", total-id)
				break
			}
			p := idx.PointAt(id)
			mark := " "
			if ext.Contains(id) {
				mark = "✓"
			}
			fmt.Printf("  %s %v  %s\n", mark, p, p.State())
		}
		return nil
	}

	holds := ext.Len()
	fmt.Printf("holds at : %d / %d points\n", holds, total)
	if holds == total {
		fmt.Println("verdict  : VALID (holds at every point)")
		return nil
	}
	fmt.Println("verdict  : NOT VALID; counterexamples:")
	for i, p := range ext.Complement(1).FirstN(max(*maxRows, 0) + 1) {
		if i >= *maxRows {
			fmt.Printf("  ... (%d more)\n", total-holds-i)
			break
		}
		fmt.Printf("  %v  %s\n", p, p.State())
	}
	return nil
}

// runREPL evaluates formulas read line by line. Lines starting with ":"
// are commands: ":props" lists propositions, ":assign <name>" switches the
// probability assignment, ":quit" exits.
func runREPL(entry registry.Entry, sa core.SampleAssignment, in io.Reader, out io.Writer) error {
	P := core.NewProbAssignment(entry.Sys, sa)
	e := logic.NewEvaluator(entry.Sys, P, entry.Props)
	total := entry.Sys.NumPoints()
	fmt.Fprintf(out, "%s (%d points, assignment %s) — enter formulas, :quit to exit\n",
		entry.Name, total, sa.Name())
	scanner := bufio.NewScanner(in)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return nil
		case line == ":props":
			names := make([]string, 0, len(entry.Props))
			for n := range entry.Props {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintln(out, strings.Join(names, " "))
			continue
		case strings.HasPrefix(line, ":assign "):
			name := strings.TrimSpace(strings.TrimPrefix(line, ":assign "))
			newSA, err := registry.Assignment(entry.Sys, name)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			sa = newSA
			P = core.NewProbAssignment(entry.Sys, sa)
			e = logic.NewEvaluator(entry.Sys, P, entry.Props)
			fmt.Fprintln(out, "assignment:", sa.Name())
			continue
		case strings.HasPrefix(line, ":"):
			fmt.Fprintln(out, "commands: :props, :assign <post|fut|prior|opp:J>, :quit")
			continue
		}
		f, err := logic.Parse(line)
		if err != nil {
			fmt.Fprintln(out, "parse error:", err)
			continue
		}
		ext, err := e.DenseExtension(f)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		holds := ext.Len()
		verdict := "NOT VALID"
		if holds == total {
			verdict = "VALID"
		}
		fmt.Fprintf(out, "%s — holds at %d/%d points\n", verdict, holds, total)
	}
	return scanner.Err()
}
