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
	// Inconsistent override is rejected.
	if err := run(context.Background(), []string{"-reuse", "5000"}, strings.NewReader(sampleLog), &bytes.Buffer{}); err == nil {
		t.Fatal("reuse above cutoff accepted")
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
