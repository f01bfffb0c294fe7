// Command hiqbench regenerates the paper's figures and tables by running
// the experiment suite (internal/experiments) and printing markdown reports
// whose tables give each measured scaling slope beside the paper's bound.
// The report asserts nothing: the bounds are asserted on exact counts by
// the experiments package's TestBoundsExact.
//
// Usage:
//
//	hiqbench                  # run everything at full scale
//	hiqbench -quick           # smaller sweeps (~1 minute)
//	hiqbench -exp fig3,ex28   # selected experiments
//	hiqbench -list            # list experiment IDs
//	hiqbench -o report.md     # write the report to a file
//	hiqbench -json            # emit the same tables as JSON instead of
//	                          # markdown (the BENCH_*.json trajectory files
//	                          # come from bench2json, not from here)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ivmeps/internal/benchutil"
	"ivmeps/internal/experiments"
)

// jsonReport is the machine-readable -json output: one entry per
// experiment, with the same tables and notes as the markdown report.
type jsonReport struct {
	Generated time.Time        `json:"generated"`
	Quick     bool             `json:"quick"`
	Seed      int64            `json:"seed"`
	Results   []jsonExperiment `json:"results"`
}

type jsonExperiment struct {
	ID         string             `json:"id"`
	Title      string             `json:"title"`
	Tables     []*benchutil.Table `json:"tables,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
	WallMillis int64              `json:"wall_millis"`
}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		seed     = flag.Int64("seed", 2020, "workload generator seed")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		outPath  = flag.String("o", "", "write the report to this file instead of stdout")
		jsonFlag = flag.Bool("json", false, "emit JSON instead of markdown")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hiqbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	var selected []experiments.Experiment
	if *expFlag == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e := experiments.Find(strings.TrimSpace(id))
			if e == nil {
				fmt.Fprintf(os.Stderr, "hiqbench: unknown experiment %q (use -list)\n", id)
				os.Exit(1)
			}
			selected = append(selected, *e)
		}
	}

	// One run loop for both output modes: markdown renders each experiment
	// as it finishes (so a long sweep streams to the file/terminal), JSON
	// must buffer the whole report.
	rep := jsonReport{Generated: time.Now(), Quick: *quick, Seed: *seed}
	if !*jsonFlag {
		fmt.Fprintf(out, "# IVM^ε experiment report\n\n")
		fmt.Fprintf(out, "Generated %s; quick=%v seed=%d.\n\n", time.Now().Format(time.RFC3339), *quick, *seed)
	}
	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "running %s ...\n", e.ID)
		start := time.Now()
		res := e.Run(cfg)
		wall := time.Since(start)
		if !*jsonFlag {
			fmt.Fprint(out, res.Render())
			fmt.Fprintf(out, "_(experiment wall time: %v)_\n\n", wall.Round(time.Millisecond))
			continue
		}
		rep.Results = append(rep.Results, jsonExperiment{
			ID:         res.ID,
			Title:      res.Title,
			Tables:     res.Tables,
			Notes:      res.Notes,
			WallMillis: wall.Milliseconds(),
		})
	}
	if *jsonFlag {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "hiqbench:", err)
			os.Exit(1)
		}
	}
}
