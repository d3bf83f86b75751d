// Command cmbench regenerates the paper's tables and figures from the
// models and simulators in this repository, printing each as a text table
// with the paper's reported values alongside.
//
// Usage:
//
//	cmbench                 # run every experiment
//	cmbench -exp fig7,fig10 # run selected experiments
//	cmbench -list           # list experiment IDs
//	cmbench -csv results/   # also write one CSV per experiment
//
// The ring kernel dispatch path (generic | avx2 | avx512) is
// chosen at startup by CPU detection and forceable with CM_KERNEL; every
// run prints the active path and the available ones so recorded numbers
// are attributable. The per-path table of the 16-bit compare the CPU
// engine runs, and the rows of its one-loop 64-bit reference, are a Go
// benchmark:
//
//	go test -run '^$' -bench '^BenchmarkSubCmp(MultiBits|NarrowBits)$' ./internal/ring
//
// Measured serving performance lives in the bench/ module, whose metric
// names BENCHMARK.json declares:
//
//	go run -C bench .
//
// The in-process per-engine search cost is a Go benchmark:
//
//	go test -run '^$' -bench 'BenchmarkEngine$' .
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ciphermatch/internal/harness"
	"ciphermatch/internal/perfmodel"
	"ciphermatch/internal/ring"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs, 'all', or 'none'")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "directory to write per-experiment CSV files")
	flag.Parse()

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	fmt.Printf("kernel path: %s (available: %v)\n", ring.ActiveKernel(), ring.AvailableKernels())
	if note := ring.KernelInitNote(); note != "" {
		fmt.Printf("kernel note: %s\n", note)
	}

	var selected []harness.Experiment
	switch *exp {
	case "all":
		selected = harness.All()
	case "none":
	default:
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "cmbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	model := perfmodel.NewPaperModel()
	exitCode := 0
	for _, e := range selected {
		tbl, err := e.Run(model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: %s failed: %v\n", e.ID, err)
			exitCode = 1
			continue
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "cmbench: rendering %s: %v\n", e.ID, err)
			exitCode = 1
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tbl); err != nil {
				fmt.Fprintf(os.Stderr, "cmbench: writing CSV for %s: %v\n", e.ID, err)
				exitCode = 1
			}
		}
	}
	os.Exit(exitCode)
}

func writeCSV(dir string, tbl *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return tbl.WriteCSV(f)
}
