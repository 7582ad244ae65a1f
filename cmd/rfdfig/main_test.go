package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigureOrder pins the -fig all execution order. The dispatch used to
// iterate a map, so artifacts were produced in a different order on every
// invocation; the order is now part of the CLI contract.
func TestFigureOrder(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig7", "fig8", "fig9", "fig10", "fig13", "fig14",
		"fig15", "deployment", "filters", "intervals", "sizes", "events", "loss",
	}
	if len(figures) != len(want) {
		t.Fatalf("got %d figures, want %d", len(figures), len(want))
	}
	for i, f := range figures {
		if f.name != want[i] {
			t.Errorf("figures[%d] = %q, want %q", i, f.name, want[i])
		}
		if f.fn == nil {
			t.Errorf("figures[%d] (%q) has nil generator", i, f.name)
		}
	}
}

// TestFigureNamesUnique guards against a copy-paste duplicate shadowing a
// figure (with the map this was impossible; with the slice a duplicate would
// silently run one generator twice).
func TestFigureNamesUnique(t *testing.T) {
	seen := make(map[string]bool, len(figures))
	for _, f := range figures {
		if seen[f.name] {
			t.Errorf("duplicate figure name %q", f.name)
		}
		seen[f.name] = true
	}
}

// TestRunRejectsBadShards: -shards reaches experiment as given, so the rule
// book's own message is what the user sees. Pre-fix a negative count was
// dropped and the figure ran sequentially without a word.
func TestRunRejectsBadShards(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-shards", "-2"}, "negative shard count -2"},
		{[]string{"-shards", "4", "-check"}, "invariant checker"},
	} {
		args := append([]string{"-fig", "fig7", "-small", "-noplot", "-out", t.TempDir()}, tc.args...)
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRunWritesProfiles: -cpuprofile / -memprofile leave a profile each behind
// a figure build, as rfdsim's pair does behind a run.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	args := []string{"-fig", "fig10", "-small", "-noplot", "-out", dir, "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if st, err := os.Stat(name); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (err %v)", filepath.Base(name), err)
		}
	}
}
