// Command tpminer mines interval-based sequential patterns from a
// dataset file.
//
// Usage:
//
//	tpminer -in data.csv -minsup 0.05
//	tpminer -in data.lines -type coincidence -minsup 0.1
//	tpminer -in data.csv -algo tprefixspan -mincount 20 -stats
//
// Input formats (chosen by -format, or by file extension): "csv" with
// records "sequence_id,symbol,start,end", or "lines" with one sequence
// per line "id: A[1,5] B[3,9]". Output is one pattern per line,
// "support<TAB>pattern", optionally followed by the recovered Allen
// relations (-relations).
//
// With -follow <url>, tpminer instead subscribes to a tpmd
// continuous-mining job's Server-Sent Events stream, prints one line
// per snapshot/delta, and maintains the pattern set locally —
// reconnecting with Last-Event-ID so the set stays exact across
// connection drops:
//
//	tpminer -follow http://localhost:8080/v1/jobs/ops/events
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tpminer/internal/baseline"
	"tpminer/internal/core"
	"tpminer/internal/dataio"
	"tpminer/internal/interval"
	"tpminer/internal/pattern"
	"tpminer/internal/render"
	"tpminer/internal/rules"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tpminer:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tpminer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input dataset file (default: stdin)")
		format    = fs.String("format", "", "input format: csv or lines (default: by extension)")
		ptype     = fs.String("type", "temporal", "pattern type: temporal or coincidence")
		algo      = fs.String("algo", "ptpminer", "algorithm: ptpminer, tprefixspan, apriori")
		minsup    = fs.Float64("minsup", 0, "relative minimum support in (0,1]")
		mincount  = fs.Int("mincount", 0, "absolute minimum support (overrides -minsup)")
		maxIvs    = fs.Int("max-intervals", 0, "max interval instances per pattern (0 = unlimited)")
		maxElems  = fs.Int("max-elements", 0, "max elements per pattern (0 = unlimited)")
		maxSpan   = fs.Int64("max-span", 0, "max embedding time span, temporal only (0 = unlimited)")
		maxGap    = fs.Int64("max-gap", 0, "max time gap between consecutive elements, temporal only (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "abort mining after this duration, ptpminer only (0 = unlimited)")
		maxPats   = fs.Int("max-patterns", 0, "stop after emitting this many patterns, ptpminer only (0 = unlimited)")
		topk      = fs.Int("topk", 0, "mine only the k best-supported patterns (threshold flags become a floor)")
		closed    = fs.Bool("closed", false, "keep only closed patterns")
		maximal   = fs.Bool("maximal", false, "keep only maximal patterns")
		relations = fs.Bool("relations", false, "append the Allen-relation reading to each temporal pattern")
		renderPat = fs.Bool("render", false, "draw each temporal pattern as an ASCII timeline")
		rulesMin  = fs.Float64("rules", 0, "derive association rules at this minimum confidence (temporal only; 0 = off)")
		jsonOut   = fs.Bool("json", false, "emit JSON instead of the text format")
		match     = fs.String("match", "", "skip mining; count the support of this pattern instead")
		stats     = fs.Bool("stats", false, "print mining statistics to stderr")
		out       = fs.String("out", "", "output file (default: stdout)")
		follow    = fs.String("follow", "", "skip mining; follow a tpmd job's SSE delta stream at this URL (e.g. http://host:8080/v1/jobs/ops/events)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *follow != "" {
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		return followJob(ctx, stdout, stderr, *follow)
	}

	db, err := readDatabase(*in, *format)
	if err != nil {
		return err
	}

	if (*timeout > 0 || *maxPats > 0) && *algo != "ptpminer" {
		return fmt.Errorf("-timeout and -max-patterns are only supported with -algo ptpminer")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := core.Options{
		MinSupport:   *minsup,
		MinCount:     *mincount,
		MaxIntervals: *maxIvs,
		MaxElements:  *maxElems,
		MaxSpan:      *maxSpan,
		MaxGap:       *maxGap,
		MaxPatterns:  *maxPats,
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *match != "" {
		return matchPattern(w, db, *ptype, *match)
	}

	if *topk > 0 && *algo != "ptpminer" {
		return fmt.Errorf("-topk is only supported with -algo ptpminer")
	}
	if *closed && *maximal {
		return fmt.Errorf("-closed and -maximal are mutually exclusive")
	}

	switch *ptype {
	case "temporal":
		miner, err := temporalMiner(ctx, *algo)
		if err != nil {
			return err
		}
		var (
			rs []pattern.TemporalResult
			st core.Stats
		)
		if *topk > 0 {
			if opt.MinCount == 0 && opt.MinSupport == 0 {
				opt.MinCount = 1
			}
			rs, st, err = core.MineTemporalTopKCtx(ctx, db, *topk, opt)
		} else {
			rs, st, err = miner(db, opt)
		}
		if err != nil {
			return err
		}
		if *closed {
			rs = core.FilterClosed(rs)
		}
		if *maximal {
			rs = core.FilterMaximal(rs)
		}
		switch {
		case *jsonOut:
			if err := dataio.WriteTemporalResultsJSON(w, rs); err != nil {
				return err
			}
		case *renderPat:
			for _, r := range rs {
				if _, err := fmt.Fprintf(w, "support %d: %s\n%s\n", r.Support,
					r.Pattern.RelationSummary(), render.Pattern(r.Pattern, render.Options{})); err != nil {
					return err
				}
			}
		case *relations:
			for _, r := range rs {
				if _, err := fmt.Fprintf(w, "%d\t%s\t%s\n", r.Support, r.Pattern, r.Pattern.RelationSummary()); err != nil {
					return err
				}
			}
		default:
			if err := dataio.WriteTemporalResults(w, rs); err != nil {
				return err
			}
		}
		if *rulesMin > 0 {
			derived, err := rules.Derive(rs, db, rules.Options{MinConfidence: *rulesMin})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "\n# association rules (min confidence %g)\n%s",
				*rulesMin, rules.Format(derived)); err != nil {
				return err
			}
		}
		printStats(stderr, *stats, len(rs), st)
	case "coincidence":
		miner, err := coincMiner(ctx, *algo)
		if err != nil {
			return err
		}
		var (
			rs []pattern.CoincResult
			st core.Stats
		)
		if *topk > 0 {
			if opt.MinCount == 0 && opt.MinSupport == 0 {
				opt.MinCount = 1
			}
			rs, st, err = core.MineCoincidenceTopKCtx(ctx, db, *topk, opt)
		} else {
			rs, st, err = miner(db, opt)
		}
		if err != nil {
			return err
		}
		if *closed {
			rs = core.FilterClosedCoinc(rs)
		}
		if *maximal {
			rs = core.FilterMaximalCoinc(rs)
		}
		if *jsonOut {
			if err := dataio.WriteCoincResultsJSON(w, rs); err != nil {
				return err
			}
		} else if err := dataio.WriteCoincResults(w, rs); err != nil {
			return err
		}
		printStats(stderr, *stats, len(rs), st)
	default:
		return fmt.Errorf("unknown -type %q (want temporal or coincidence)", *ptype)
	}
	return nil
}

// matchPattern counts the support of one user-supplied pattern and
// prints a small report.
func matchPattern(w io.Writer, db *interval.Database, ptype, text string) error {
	switch ptype {
	case "temporal":
		p, err := pattern.ParseTemporal(text)
		if err != nil {
			return err
		}
		enc, err := pattern.EncodeDatabase(db)
		if err != nil {
			return err
		}
		aligned := pattern.SupportAligned(enc, p)
		any := pattern.SupportAny(db, p)
		_, err = fmt.Fprintf(w, "pattern:     %s\nrelations:   %s\naligned:     %d of %d sequences\nany-binding: %d of %d sequences\n",
			p, p.RelationSummary(), aligned, db.Len(), any, db.Len())
		return err
	case "coincidence":
		p, err := pattern.ParseCoinc(text)
		if err != nil {
			return err
		}
		enc, err := pattern.TransformDatabase(db)
		if err != nil {
			return err
		}
		sup := pattern.SupportCoinc(enc, p)
		_, err = fmt.Fprintf(w, "pattern: %s\nsupport: %d of %d sequences\n", p, sup, db.Len())
		return err
	default:
		return fmt.Errorf("unknown -type %q (want temporal or coincidence)", ptype)
	}
}

func readDatabase(path, format string) (*interval.Database, error) {
	var r io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	if format == "" {
		switch {
		case strings.HasSuffix(path, ".csv"):
			format = "csv"
		default:
			format = "lines"
		}
	}
	switch format {
	case "csv":
		return dataio.ReadCSV(r)
	case "lines":
		return dataio.ReadLines(r)
	default:
		return nil, fmt.Errorf("unknown -format %q (want csv or lines)", format)
	}
}

func temporalMiner(ctx context.Context, algo string) (func(*interval.Database, core.Options) ([]pattern.TemporalResult, core.Stats, error), error) {
	switch algo {
	case "ptpminer":
		return func(db *interval.Database, opt core.Options) ([]pattern.TemporalResult, core.Stats, error) {
			return core.MineTemporalCtx(ctx, db, opt)
		}, nil
	case "tprefixspan":
		return baseline.TPrefixSpan, nil
	case "apriori":
		return baseline.AprioriTemporal, nil
	default:
		return nil, fmt.Errorf("unknown -algo %q for temporal mining", algo)
	}
}

func coincMiner(ctx context.Context, algo string) (func(*interval.Database, core.Options) ([]pattern.CoincResult, core.Stats, error), error) {
	switch algo {
	case "ptpminer":
		return func(db *interval.Database, opt core.Options) ([]pattern.CoincResult, core.Stats, error) {
			return core.MineCoincidenceCtx(ctx, db, opt)
		}, nil
	case "apriori":
		return baseline.AprioriCoincidence, nil
	default:
		return nil, fmt.Errorf("unknown -algo %q for coincidence mining", algo)
	}
}

func printStats(w io.Writer, enabled bool, n int, st core.Stats) {
	if st.Truncated {
		fmt.Fprintf(w, "warning: result truncated by %s; patterns beyond the budget are missing\n", st.TruncatedBy)
	}
	if !enabled {
		return
	}
	fmt.Fprintf(w, "sequences=%d mincount=%d patterns=%d emitted=%d nodes=%d scans=%d pruned(p1_items=%d p2_pair=%d p3_postfix=%d p4_size=%d) elapsed=%s\n",
		st.Sequences, st.MinCount, n, st.Emitted, st.Nodes, st.CandidateScans,
		st.ItemsRemoved, st.PairPruned, st.PostfixPruned, st.SizePruned, st.Elapsed)
}
