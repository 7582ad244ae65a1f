package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallScenario(t *testing.T) {
	args := []string{"-rows", "4", "-cols", "4", "-pulses", "1"}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
}

func TestRunVariants(t *testing.T) {
	cases := [][]string{
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "off"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "none"}, // rfdd's spelling of off
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "ripe229"},
		{"-topology", "star", "-nodes", "6", "-pulses", "1"}, // any rfdtopo family
		{"-rows", "4", "-cols", "4", "-pulses", "2", "-damping", "juniper", "-v"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-rcn"},
		{"-topology", "ring", "-nodes", "10", "-pulses", "1"},
		{"-topology", "line", "-nodes", "5", "-pulses", "0"},
		{"-topology", "internet", "-nodes", "20", "-pulses", "1", "-policy", "novalley"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-mrai", "0s"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-isp", "3"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestRunWritesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	args := []string{"-rows", "4", "-cols", "4", "-pulses", "1", "-damping", "off", "-trace", path}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty trace file")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-topology", "moebius"}, "unknown topology family"},
		{[]string{"-damping", "huawei"}, "unknown damping preset"},
		{[]string{"-policy", "chaos"}, "unknown policy"},
		{[]string{"-topology", "ring", "-nodes", "2"}, "ring needs >= 3 nodes, got 2"},
		// Pre-fix a negative shard count ran sequentially without a word.
		{[]string{"-rows", "4", "-cols", "4", "-shards", "-2"}, "negative shard count -2"},
		{[]string{"-rows", "4", "-cols", "4", "-shards", "4", "-check"}, "invariant checker"},
	}
	for _, tc := range cases {
		if err := run(context.Background(), tc.args); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestRunSharded(t *testing.T) {
	cases := [][]string{
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-shards", "4", "-v"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-shards", "2", "-loss", "0.01"},
		{"-topology", "internet", "-nodes", "20", "-pulses", "1", "-shards", "2"},
		{"-rows", "4", "-cols", "4", "-pulses", "1", "-shards", "2", "-sweep", "0:2"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	// -check needs the sequential engine.
	if err := run(context.Background(), []string{"-rows", "4", "-cols", "4", "-shards", "2", "-check"}); err == nil {
		t.Fatal("-shards with -check accepted")
	}
}

func TestRunCAIDATopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "as-rel.txt")
	data := "# tiny fixture\n10|20|0\n10|30|-1\n20|30|-1\n30|40|-1\n40|10|0\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-topology", "caida:" + path, "-pulses", "1", "-shards", "2"}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-topology", "caida:" + path + ".missing"}); err == nil {
		t.Fatal("missing CAIDA file accepted")
	}
}
