// Command propart partitions a circuit netlist with any of the
// implemented algorithms.
//
// Usage:
//
//	propart -in circuit.hgr [-format hgr|netare|json] [-algo prop] \
//	        [-r1 0.5 -r2 0.5] [-runs 20] [-par 8] [-k 2] [-seed 1] [-out sides.txt] \
//	        [-warm sides.txt] [-delta delta.json] \
//	        [-trace trace.jsonl] [-trace-level pass]
//
// With -format netare, -in names the .net file and -are the .are file.
// Instead of -in, -suite <name> loads one of the paper's Table-1 suite
// circuits (e.g. industry2). The output lists one "node side" pair per
// line; -k > 2 performs recursive k-way partitioning and prints part
// indices instead.
//
// -delta applies a JSON netlist delta (ECO edit script; see the prop
// package's Delta type) to the input before partitioning. Combined with
// -warm, which names a previous "node side" assignment of the *base*
// netlist, the run takes the incremental path: the old sides are
// projected through the delta and the partitioner warm-starts from them
// instead of solving from scratch. -warm alone warm-starts run 0 on the
// unmodified input. Both are bisection-only (-k 2).
//
// -trace writes a JSONL convergence trace (run spans, phase spans and
// per-pass events; see internal/obs for the schema) without changing the
// result. -report aggregates the trace into the run report
// (internal/obs/report: phase wall-time tree, convergence curve,
// move/flow rates) and prints it to stderr after the run; without
// -trace it traces into memory at -trace-level granularity.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"prop"
	"prop/internal/obs/report"
)

func main() {
	var (
		in       = flag.String("in", "", "input netlist file ('-' for stdin)")
		suite    = flag.String("suite", "", "synthesize a Table-1 suite circuit by name instead of -in")
		are      = flag.String("are", "", ".are module-area file (netare format)")
		format   = flag.String("format", "hgr", "input format: hgr, netare, json")
		algo     = flag.String("algo", "prop", "algorithm: prop, fm, fm-tree, la, kl, sk, flow, sa, ml-prop, eig1, melo, paraboli, window")
		laK      = flag.Int("la", 2, "lookahead depth for -algo la")
		mlMode   = flag.String("ml-mode", "", "hierarchy style for -algo ml-prop: vcycle or nlevel")
		mlBatch  = flag.Int("ml-batch", 0, "uncontraction batch size for -ml-mode nlevel (0 = default)")
		r1       = flag.Float64("r1", 0.5, "lower balance bound")
		r2       = flag.Float64("r2", 0.5, "upper balance bound")
		runs     = flag.Int("runs", 20, "multi-start runs for iterative algorithms")
		par      = flag.Int("par", runtime.GOMAXPROCS(0), "worker goroutines for multi-start runs (1 = sequential)")
		k        = flag.Int("k", 2, "number of parts (power of two; 2 = bisection)")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("out", "", "output assignment file (default stdout)")
		warm     = flag.String("warm", "", "warm-start from a saved \"node side\" assignment file")
		deltaIn  = flag.String("delta", "", "apply a JSON netlist delta before partitioning (incremental with -warm)")
		check    = flag.String("check", "", "verify a saved \"node side\" assignment file instead of partitioning")
		quiet    = flag.Bool("q", false, "print only the cut size")
		traceOut = flag.String("trace", "", "write a JSONL trace of the runs to this file")
		traceLvl = flag.String("trace-level", "pass", "trace granularity: run, pass, move")
		doReport = flag.Bool("report", false, "print the aggregated run report to stderr after the run")
	)
	flag.Parse()
	if (*in == "") == (*suite == "") {
		fmt.Fprintln(os.Stderr, "propart: exactly one of -in and -suite is required")
		flag.Usage()
		os.Exit(2)
	}

	var n *prop.Netlist
	var err error
	if *suite != "" {
		n, err = prop.Benchmark(*suite)
	} else {
		n, err = load(*in, *are, *format)
	}
	if err != nil {
		fatal(err)
	}
	opts := prop.Options{
		Algorithm: prop.Algorithm(*algo),
		R1:        *r1, R2: *r2,
		Runs: *runs, Seed: *seed, LADepth: *laK,
		Parallel: *par,
	}
	if *mlMode != "" || *mlBatch != 0 {
		opts.ML = &prop.MLParams{Mode: *mlMode, UncontractBatch: *mlBatch}
	}

	lvl, ok := prop.ParseTraceLevel(*traceLvl)
	if !ok {
		fatal(fmt.Errorf("bad -trace-level %q: want run, pass, or move", *traceLvl))
	}
	// -report tees the trace into memory (tracer writes land in the buffer
	// at emission time, before any deferred file flush) and aggregates it
	// once the run's defers print their own lines.
	var reportBuf *bytes.Buffer
	if *doReport {
		reportBuf = &bytes.Buffer{}
		defer func() {
			rep, err := report.Read(reportBuf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "propart: report:", err)
				return
			}
			if err := report.WriteText(os.Stderr, rep, 10); err != nil {
				fmt.Fprintln(os.Stderr, "propart: report:", err)
			}
		}()
	}

	var tracer *prop.Tracer
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		tw := bufio.NewWriter(tf)
		var sink io.Writer = tw
		if reportBuf != nil {
			sink = io.MultiWriter(tw, reportBuf)
		}
		tracer = prop.NewTracer(sink, lvl)
		opts.Tracer = tracer
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "propart: trace:", err)
			}
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "propart: trace:", err)
			}
			if err := tf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "propart: trace:", err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", tracer.Events(), *traceOut)
			}
		}()
	} else if reportBuf != nil {
		tracer = prop.NewTracer(reportBuf, lvl)
		opts.Tracer = tracer
	}

	if *check != "" {
		sides, err := readSides(*check, n.NumNodes())
		if err != nil {
			fatal(err)
		}
		cost, nets, err := prop.Verify(n, sides, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("verified: cut cost %g over %d nets, balance %g-%g ok\n", cost, nets, *r1, *r2)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if (*warm != "" || *deltaIn != "") && *k > 2 {
		fatal(fmt.Errorf("-warm and -delta are bisection-only; drop -k %d", *k))
	}
	if *deltaIn != "" {
		d, err := readDelta(*deltaIn)
		if err != nil {
			fatal(err)
		}
		if *warm != "" {
			// Incremental path: project the base assignment through the
			// delta and warm-start from it.
			prev, err := readSides(*warm, n.NumNodes())
			if err != nil {
				fatal(err)
			}
			_, res, err := prop.Repartition(n, prev, d, opts)
			if err != nil {
				fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "%s (warm, delta): cut nets %d, cut cost %g, %.2fs\n",
					*algo, res.CutNets, res.CutCost, res.Elapsed.Seconds())
			} else {
				fmt.Println(res.CutNets)
			}
			for u, s := range res.Sides {
				fmt.Fprintf(w, "%d %d\n", u, s)
			}
			return
		}
		edited, _, err := n.ApplyDelta(d)
		if err != nil {
			fatal(err)
		}
		n = edited
	} else if *warm != "" {
		sides, err := readSides(*warm, n.NumNodes())
		if err != nil {
			fatal(err)
		}
		opts.Initial = sides
	}

	if *k > 2 {
		res, err := prop.KWay(n, *k, opts)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%d-way: cut nets %d, cut cost %g, part weights %v, %.2fs\n",
				*k, res.CutNets, res.CutCost, res.PartWeights, res.Elapsed.Seconds())
		} else {
			fmt.Println(res.CutNets)
		}
		for u, p := range res.Parts {
			fmt.Fprintf(w, "%d %d\n", u, p)
		}
		return
	}

	res, err := prop.Partition(n, opts)
	if err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%s: cut nets %d, cut cost %g (best of %d runs, run %d), %.2fs\n",
			*algo, res.CutNets, res.CutCost, res.Runs, res.BestRun, res.Elapsed.Seconds())
	} else {
		fmt.Println(res.CutNets)
	}
	for u, s := range res.Sides {
		fmt.Fprintf(w, "%d %d\n", u, s)
	}
}

func load(in, are, format string) (*prop.Netlist, error) {
	r := os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "hgr":
		return prop.ReadHGR(r)
	case "json":
		return prop.ReadJSON(r)
	case "netare":
		var areR *os.File
		if are != "" {
			f, err := os.Open(are)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			areR = f
		}
		if areR != nil {
			return prop.ReadNetAre(r, areR)
		}
		return prop.ReadNetAre(r, nil)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

// readDelta parses a JSON netlist delta file.
func readDelta(path string) (*prop.Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d prop.Delta
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("delta %s: %w", path, err)
	}
	return &d, nil
}

// readSides parses "node side" lines (as written by -out) into a side
// slice.
func readSides(path string, n int) ([]uint8, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sides := make([]uint8, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var u, s int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &s); err != nil {
			return nil, fmt.Errorf("bad assignment line %q: %w", line, err)
		}
		if u < 0 || u >= n || s < 0 || s > 1 {
			return nil, fmt.Errorf("assignment line %q out of range", line)
		}
		sides[u] = uint8(s)
		seen[u] = true
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for u, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("node %d missing from assignment", u)
		}
	}
	return sides, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "propart:", err)
	os.Exit(1)
}
