package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/outputs.sha256")

// TestOutputDigests: every CSV of -fig all -noplot at seeds 1–4 (paper scale)
// and at -small -check hashes to its line in testdata/outputs.sha256. Run
// with -update to re-record after an intentional change to a figure, and say
// in CHANGES.md why it moved.
func TestOutputDigests(t *testing.T) {
	got := map[string]string{}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"seed1", []string{"-seed", "1"}},
		{"seed2", []string{"-seed", "2"}},
		{"seed3", []string{"-seed", "3"}},
		{"seed4", []string{"-seed", "4"}},
		{"small-check", []string{"-small", "-check"}},
	} {
		dir := t.TempDir()
		args := append([]string{"-fig", "all", "-noplot", "-out", dir}, tc.args...)
		if err := run(context.Background(), args, io.Discard); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[tc.name+"/"+e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	checkDigests(t, "testdata/outputs.sha256", got)
}

// checkDigests compares got (output name → hex SHA-256) with the file at
// path, one "sha256  name" line per output, and names every output that
// moved, appeared or went missing. With -update it rewrites the file instead.
func checkDigests(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *update {
		var b strings.Builder
		for _, name := range sortedKeys(got) {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing digest file (run with -update to record): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: bad line %q", path, sc.Text())
		}
		want[name] = sum
	}
	var moved []string
	names := maps.Clone(got)
	maps.Copy(names, want)
	for _, name := range sortedKeys(names) {
		switch g, w := got[name], want[name]; {
		case w == "":
			moved = append(moved, name+" (not recorded)")
		case g == "":
			moved = append(moved, name+" (not written)")
		case g != w:
			moved = append(moved, name)
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d outputs differ from %s (re-record with -update only for an intended change):\n\t%s",
			len(moved), path, strings.Join(moved, "\n\t"))
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
