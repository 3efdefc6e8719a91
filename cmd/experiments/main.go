// Command experiments checks the claims of the Spinner paper's evaluation
// (§V) on synthetic dataset analogues and prints them as one markdown
// table: the row's id (a table or figure of the paper), what the paper
// claims and the tolerance checked, the measured values, and the verdict —
// pass, FAIL, or a deviation with its reason. The rows are
// internal/experiments.Claims; each fixes its own sweep. It exits 1 when a
// row fails.
//
// Usage:
//
//	experiments                          # every row (about 35 s at the default scale on 2 vCPUs)
//	experiments -exp table4,fig9         # the rows named
//	experiments -exp fig7 -scale 50000 -seed 3
//
// `make reproduction` writes its default-scale output to REPRODUCTION.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pregel"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated row ids, or all: "+ids())
		scale   = flag.Int("scale", 20000, "vertex scale for dataset analogues")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "Pregel workers, each its own §IV-A4 load view, so the labels depend on it (0 = 8 on every host)")
	)
	flag.Parse()
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	passed, err := runOne(os.Stdout, *exp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if !passed {
		os.Exit(1)
	}
}

func ids() string {
	var out []string
	for _, cl := range experiments.Claims {
		out = append(out, cl.ID)
	}
	return strings.Join(out, ", ")
}

// runOne runs the rows exp names ("all" or comma-separated ids) and prints
// them as one table, each as soon as it is measured. It reports whether no
// row failed; a deviation is not a failure.
func runOne(out io.Writer, exp string, cfg experiments.Config) (bool, error) {
	var rows []experiments.Claim
	if exp == "all" {
		rows = experiments.Claims
	} else {
	next:
		for _, id := range strings.Split(exp, ",") {
			for _, cl := range experiments.Claims {
				if cl.ID == id {
					rows = append(rows, cl)
					continue next
				}
			}
			return false, fmt.Errorf("unknown row %q (rows: %s)", id, ids())
		}
	}
	workers := fmt.Sprintf("%d (the default)", pregel.DefaultWorkers)
	if cfg.Workers > 0 {
		workers = fmt.Sprint(cfg.Workers)
	}
	fmt.Fprintf(out, "Seed %d, scale %d, workers %s; nproc %d, GOMAXPROCS %d.\n\n",
		cfg.Seed, cfg.Scale, workers, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintln(out, "| id | the paper | measured | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|")
	cell := strings.NewReplacer("|", `\|`).Replace
	passed := true
	for _, cl := range rows {
		o, err := cl.Run(cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", cl.ID, err)
		}
		passed = passed && len(o.Failed) == 0
		fmt.Fprintf(out, "| %s | %s | %s | %s |\n", cl.ID, cell(cl.Paper), cell(strings.Join(o.Measured, "; ")), cell(o.Verdict()))
	}
	return passed, nil
}
