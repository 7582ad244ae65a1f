package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

const sampleLog = `0 initial
10 w
20 a
30 w
40 a
50 w
`

func TestRunReportsSuppression(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader(sampleLog), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"SUPPRESSED", "suppressions:     1", "max penalty:", "final reuse at:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunQuiet(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quiet"}, strings.NewReader(sampleLog), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "SUPPRESSED (") {
		t.Fatal("quiet mode printed the timeline")
	}
	if !strings.Contains(out.String(), "suppressions:") {
		t.Fatal("quiet mode lost the summary")
	}
}

func TestRunPresets(t *testing.T) {
	for _, preset := range []string{"cisco", "juniper", "ripe229"} {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-params", preset, "-quiet"}, strings.NewReader(sampleLog), &out); err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
	}
	// An unknown name, and the shared vocabulary's names for no damping at all.
	for _, preset := range []string{"nope", "none", "off"} {
		if err := run(context.Background(), []string{"-params", preset}, strings.NewReader(sampleLog), &bytes.Buffer{}); err == nil {
			t.Fatalf("-params %s accepted", preset)
		}
	}
}

func TestRunOverrides(t *testing.T) {
	// Raising the cutoff above the achievable penalty suppresses nothing.
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-cutoff", "9000", "-quiet"}, strings.NewReader(sampleLog), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "suppressions:     0") {
		t.Fatalf("high cutoff still suppressed:\n%s", out.String())
	}
	// Inconsistent or out-of-range overrides are rejected. Pre-fix a value
	// that was not positive was ignored, and the preset ran.
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-reuse", "5000"}, "cutoff 2000 must exceed reuse threshold 5000"},
		{[]string{"-cutoff", "-5", "-reuse", "-1", "-half-life", "-1m"}, "reuse threshold -1 must be positive"},
		{[]string{"-cutoff", "-5"}, "cutoff -5 must exceed reuse threshold 750"},
		{[]string{"-cutoff", "0"}, "cutoff 0 must exceed reuse threshold 750"},
		{[]string{"-cutoff", "NaN"}, "cutoff NaN must exceed reuse threshold 750"},
		{[]string{"-reuse", "0"}, "reuse threshold 0 must be positive"},
		{[]string{"-half-life", "-1m"}, "half-life -1m0s must be positive"},
	} {
		err := run(context.Background(), tc.args, strings.NewReader(sampleLog), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: err = %v, want one mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	if err := run(context.Background(), nil, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunBadInput(t *testing.T) {
	if err := run(context.Background(), nil, strings.NewReader("garbage\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("garbage input accepted")
	}
}
