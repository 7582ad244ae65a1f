// Package cli is the plumbing the commands share: a signal-aware main and
// the -cpuprofile/-memprofile pair.
package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
)

// Main runs run on the command-line arguments under a context that Ctrl-C or
// a SIGTERM from a supervisor cancels: a simulation stops at its next kernel
// poll, deferred cleanups (profiles, files) still run, and the error names
// the interruption point. A failure is printed as "name: err" and exits 1.
func Main(name string, run func(ctx context.Context, args []string) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		os.Exit(1)
	}
}

// Profile starts a CPU profile into the file cpu and, when mem is named too,
// has stop write a heap profile into it (after a GC, so it shows live
// objects) before the CPU profile ends. A failed heap profile is reported on
// stderr rather than failing work that already succeeded.
func Profile(cpu, mem string) (stop func(), err error) {
	stopCPU := func() {}
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() { pprof.StopCPUProfile(); f.Close() }
	}
	return func() {
		if mem != "" {
			if err := writeHeapProfile(mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: memprofile: %v\n", filepath.Base(os.Args[0]), err)
			}
		}
		stopCPU()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
