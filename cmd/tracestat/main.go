// Command tracestat summarizes a propart/propserve JSONL trace file into
// the run report (internal/obs/report): per-phase wall-time tree, top-N
// phases, pass convergence curve, and move and flow rates.
//
//	tracestat [-top N] [-json] trace.jsonl
//	tracestat -diff old.jsonl new.jsonl [-wall-pct 25] [-min-wall-ms 5] [-cut-pct 0.5]
//
// With -diff, the two traces are aggregated and compared with per-phase
// thresholds; any regression is printed and the exit status is 1, so a CI
// job can gate on "this change didn't slow any phase past X% or worsen
// the cut past Y%". Comparing a trace against itself reports nothing.
// Reading from "-" takes the trace from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"prop/internal/obs/report"
)

func main() {
	top := flag.Int("top", 10, "flattened top-N phase table size (0 disables)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of text")
	diff := flag.Bool("diff", false, "compare two traces: tracestat -diff old.jsonl new.jsonl")
	wallPct := flag.Float64("wall-pct", 25, "diff: flag phases whose wall time grew more than this percent")
	minWallMS := flag.Float64("min-wall-ms", 5, "diff: ignore phases shorter than this in the old trace")
	cutPct := flag.Float64("cut-pct", 0.5, "diff: flag a final best cut worse by more than this percent")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: tracestat -diff old.jsonl new.jsonl")
			os.Exit(2)
		}
		oldRep := mustRead(flag.Arg(0))
		newRep := mustRead(flag.Arg(1))
		regs := report.Diff(oldRep, newRep, report.DiffOptions{
			WallPct:   *wallPct,
			MinWallUS: int64(*minWallMS * 1000),
			CutPct:    *cutPct,
		})
		if len(regs) == 0 {
			fmt.Printf("tracestat: no regressions (%s vs %s)\n", flag.Arg(0), flag.Arg(1))
			return
		}
		fmt.Printf("tracestat: %d regression(s) in %s vs %s:\n", len(regs), flag.Arg(1), flag.Arg(0))
		for _, r := range regs {
			fmt.Printf("  %s\n", r)
		}
		os.Exit(1)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-top N] [-json] trace.jsonl")
		os.Exit(2)
	}
	rep := mustRead(flag.Arg(0))
	var err error
	if *jsonOut {
		err = report.WriteJSON(os.Stdout, rep)
	} else {
		err = report.WriteText(os.Stdout, rep, *top)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
}

// mustRead aggregates one trace file ("-" = stdin) or exits.
func mustRead(path string) *report.RunReport {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		r = f
	}
	rep, err := report.Read(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %s: %v\n", path, err)
		os.Exit(1)
	}
	if rep.Events == 0 {
		fmt.Fprintf(os.Stderr, "tracestat: %s: empty trace\n", path)
		os.Exit(1)
	}
	return rep
}
