package experiment

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
)

func TestConvergenceEventsOrdering(t *testing.T) {
	rows, err := ConvergenceEvents(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("events = %d", len(rows))
	}
	byName := map[string]EventMeasurement{}
	for _, r := range rows {
		byName[r.Event] = r
	}
	for _, name := range []string{"Tup", "Tdown", "Tlong", "Tshort"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing event %s", name)
		}
		if r.Messages == 0 {
			t.Fatalf("%s triggered no updates", name)
		}
	}
	// Labovitz's result: bad news (Tdown, Tlong) is much slower than good
	// news (Tup, Tshort) because of path exploration.
	if byName["Tdown"].Convergence <= byName["Tup"].Convergence {
		t.Fatalf("Tdown (%v) not slower than Tup (%v)",
			byName["Tdown"].Convergence, byName["Tup"].Convergence)
	}
	if byName["Tlong"].Convergence <= byName["Tshort"].Convergence {
		t.Fatalf("Tlong (%v) not slower than Tshort (%v)",
			byName["Tlong"].Convergence, byName["Tshort"].Convergence)
	}
	// And bad news costs more messages, too.
	if byName["Tdown"].Messages <= byName["Tup"].Messages {
		t.Fatalf("Tdown (%d msgs) not costlier than Tup (%d msgs)",
			byName["Tdown"].Messages, byName["Tup"].Messages)
	}
}

// TestConvergenceEventsChecked: the four events pass the runtime invariant
// checker, which only observes, so the checked rows are the unchecked ones.
func TestConvergenceEventsChecked(t *testing.T) {
	plain, err := ConvergenceEvents(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := testOptions()
	o.Check = true
	checked, err := ConvergenceEvents(o)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(checked, plain) {
		t.Fatalf("checked rows %v, unchecked %v", checked, plain)
	}
}

// TestConvergenceEventsCanceled: the baseline drains under Options.Ctx like
// every other figure, so a tripped context stops it with the typed error.
func TestConvergenceEventsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := testOptions()
	o.Ctx = ctx
	rows, err := ConvergenceEvents(o)
	if !errors.Is(err, ErrCanceled) || rows != nil {
		t.Fatalf("cancelled baseline returned %d rows, err %v; want none and ErrCanceled", len(rows), err)
	}
}

func TestConvergenceEventsCSV(t *testing.T) {
	rows := []EventMeasurement{{Event: "Tup", Messages: 5}}
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "event,convergence_s,messages\nTup,0,5\n" {
		t.Fatalf("CSV = %q", buf.String())
	}
}
