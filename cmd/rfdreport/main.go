// Command rfdreport runs the complete evaluation — every paper figure plus
// the extension experiments — and writes one self-contained Markdown report.
//
// Examples:
//
//	rfdreport > report.md            # paper scale (~30 s)
//	rfdreport -small                 # reduced scale, seconds
//	rfdreport -seed 7 -o report7.md  # different randomness
package main

import (
	"context"
	"flag"
	"os"

	"rfd/experiment"
	"rfd/internal/cli"
)

// Ctrl-C / SIGTERM cancels the report's sweeps mid-run; an -o file is left
// incomplete rather than silently truncated to a valid-looking one.
func main() { cli.Main("rfdreport", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("rfdreport", flag.ContinueOnError)
	var (
		small = fs.Bool("small", false, "reduced scale for quick runs")
		seed  = fs.Uint64("seed", 1, "random seed")
		out   = fs.String("o", "", "output file (stdout when empty)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiment.DefaultOptions()
	if *small {
		opts = experiment.SmallOptions()
	}
	opts.Seed = *seed
	opts.Ctx = ctx
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return experiment.WriteReport(w, opts)
}
