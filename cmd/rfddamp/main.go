// Command rfddamp evaluates route flap damping parameters offline against a
// recorded flap history: it replays the updates through the RFC 2439 engine
// and reports the penalty timeline, suppression episodes and reuse times.
// Operators can use it to compare parameter candidates (Cisco, Juniper,
// RIPE-229 or custom) without touching a router.
//
// The input is one update per line: "<seconds> <kind>", where kind is
// withdrawal|announcement|attr-change|initial|duplicate (or w|a|c).
// Lines starting with # are comments.
//
// Examples:
//
//	rfddamp -params cisco < flaps.log
//	rfddamp -params ripe229 -quiet < flaps.log
//	printf '0 initial\n10 w\n20 a\n30 w\n40 a\n50 w\n' | rfddamp
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rfd/damping"
	"rfd/internal/cli"
)

func main() {
	cli.Main("rfddamp", func(ctx context.Context, args []string) error { return run(ctx, args, os.Stdin, os.Stdout) })
}

func run(ctx context.Context, args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("rfddamp", flag.ContinueOnError)
	var (
		name     = fs.String("params", "cisco", "parameter preset: cisco | juniper | ripe229")
		halfLife = fs.Duration("half-life", 0, "override the half-life")
		cutoff   = fs.Float64("cutoff", 0, "override the cut-off threshold")
		reuse    = fs.Float64("reuse", 0, "override the reuse threshold")
		quiet    = fs.Bool("quiet", false, "print only the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	preset, err := damping.ParsePreset(*name)
	if err != nil {
		return err
	}
	if preset == nil {
		return fmt.Errorf("bad -params %q: no damping leaves nothing to replay", *name)
	}
	params := *preset
	if *halfLife > 0 {
		params.HalfLife = *halfLife
	}
	if *cutoff > 0 {
		params.CutoffThreshold = *cutoff
	}
	if *reuse > 0 {
		params.ReuseThreshold = *reuse
	}
	if err := params.Validate(); err != nil {
		return err
	}

	updates, err := damping.ParseUpdateLog(in)
	if err != nil {
		return err
	}
	// Stdin may have been an interrupted pipe; do not replay a truncated log.
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(updates) == 0 {
		return fmt.Errorf("no updates on stdin (expected \"<seconds> <kind>\" lines)")
	}
	res, err := damping.Replay(params, updates)
	if err != nil {
		return err
	}

	if !*quiet {
		fmt.Fprintf(out, "%10s  %-16s %9s  %s\n", "time", "kind", "penalty", "state")
		for _, p := range res.Points {
			state := "ok"
			if p.BecameSuppressed {
				state = fmt.Sprintf("SUPPRESSED (reuse at %.0fs)", p.ReuseAt.Seconds())
			} else if p.Suppressed {
				state = fmt.Sprintf("suppressed (reuse at %.0fs)", p.ReuseAt.Seconds())
			}
			fmt.Fprintf(out, "%9.1fs  %-16s %9.1f  %s\n", p.At.Seconds(), p.Kind, p.Penalty, state)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "updates:          %d\n", len(res.Points))
	fmt.Fprintf(out, "max penalty:      %.1f (cutoff %.0f, ceiling %.0f)\n",
		res.MaxPenalty, params.CutoffThreshold, params.MaxPenalty())
	fmt.Fprintf(out, "suppressions:     %d\n", res.Suppressions)
	fmt.Fprintf(out, "suppressed total: %s\n", res.SuppressedTotal.Round(time.Second))
	if res.FinalReuseAt > 0 {
		fmt.Fprintf(out, "final reuse at:   %.0fs\n", res.FinalReuseAt.Seconds())
	}
	return nil
}
