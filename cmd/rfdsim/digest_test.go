package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/outputs.sha256")

// TestOutputDigests: rfdsim's stdout, without its wall time line, hashes to
// its line in testdata/outputs.sha256 for the 10×10 mesh and internet-500 at
// -pulses 3, plain and -v, at seeds 1–4; and the -trace JSONL of the mesh at
// -pulses 3, of the mesh at -rcn -loss 0.01 -sweep 0:4 and of internet-500 at
// -pulses 3, at the same seeds, hashes to its line in testdata/traces.sha256.
// A trace prints every penalty in full and math.Exp rounds differently on
// 386, so 386 keeps its own trace table, testdata/traces-386.sha256. Run with
// -update to re-record after an intentional change, and say in CHANGES.md why
// it moved.
func TestOutputDigests(t *testing.T) {
	got := map[string]string{}
	for _, topo := range []struct {
		name string
		args []string
	}{
		{"mesh10", []string{"-rows", "10", "-cols", "10"}},
		{"internet500", []string{"-topology", "internet", "-nodes", "500"}},
	} {
		for seed := 1; seed <= 4; seed++ {
			for _, v := range []string{"", "-v"} {
				args := append([]string{"-pulses", "3", "-seed", fmt.Sprint(seed)}, topo.args...)
				name := fmt.Sprintf("%s-seed%d", topo.name, seed)
				if v != "" {
					args, name = append(args, v), name+v
				}
				out, _ := capture(t, args...)
				got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(withoutWallTime(out))))
			}
		}
	}
	traces := map[string]string{}
	for _, tr := range []struct {
		name string
		args []string
	}{
		{"mesh10", []string{"-rows", "10", "-cols", "10", "-pulses", "3"}},
		{"mesh10-rcn-loss-sweep", []string{"-rows", "10", "-cols", "10", "-rcn", "-loss", "0.01", "-sweep", "0:4"}},
		{"internet500", []string{"-topology", "internet", "-nodes", "500", "-pulses", "3"}},
	} {
		for seed := 1; seed <= 4; seed++ {
			// Only the JSONL is hashed: stdout names the temporary file.
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			capture(t, append([]string{"-seed", fmt.Sprint(seed), "-trace", path}, tr.args...)...)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			traces[fmt.Sprintf("%s-seed%d", tr.name, seed)] = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	checkDigests(t, "testdata/outputs.sha256", got)
	tracePath := "testdata/traces.sha256"
	if runtime.GOARCH == "386" {
		tracePath = "testdata/traces-386.sha256"
	}
	checkDigests(t, tracePath, traces)
}

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
