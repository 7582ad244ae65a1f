package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{At: time.Second, Kind: KindDeliver, Router: 2, Peer: 1, Prefix: "p/8", Path: "1 0", Cause: "{[0 0], down, 1}"},
		{At: 2 * time.Second, Kind: KindDeliver, Router: 3, Peer: 2, Prefix: "p/8", Withdraw: true},
		{At: 3 * time.Second, Kind: KindPenalty, Router: 3, Peer: 2, Prefix: "p/8", Penalty: 1000},
		{At: 4 * time.Second, Kind: KindSuppress, Router: 3, Peer: 2, Prefix: "p/8"},
		{At: 5 * time.Second, Kind: KindReuse, Router: 3, Peer: 2, Prefix: "p/8", Noisy: true},
		{At: 6 * time.Second, Kind: KindUnsuppress, Router: 3, Peer: 2, Prefix: "p/8"},
	}
}

func TestLogAppendAndEvents(t *testing.T) {
	l := NewLog(0)
	for _, e := range sampleEvents() {
		l.Append(e)
	}
	if l.Len() != 6 || l.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", l.Len(), l.Dropped())
	}
	got := l.Events()
	if got[0].Kind != KindDeliver || got[5].Kind != KindUnsuppress {
		t.Fatal("order not preserved")
	}
	// Events returns a copy.
	got[0].Router = 99
	if l.Events()[0].Router == 99 {
		t.Fatal("Events aliases storage")
	}
}

func TestLogCapacityDrops(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Append(Event{At: time.Duration(i), Kind: KindDeliver})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", l.Dropped())
	}
	// The kept events are the earliest ones.
	if l.Events()[2].At != 2 {
		t.Fatal("capacity did not keep the head of the stream")
	}
}

func TestEventStringPerKind(t *testing.T) {
	for _, e := range sampleEvents() {
		if e.String() == "" {
			t.Fatalf("empty String for %v", e.Kind)
		}
	}
	withdraw := Event{Kind: KindDeliver, Withdraw: true}
	if !strings.Contains(withdraw.String(), "withdraw") {
		t.Fatal("withdrawal not labeled")
	}
	silent := Event{Kind: KindReuse}
	if !strings.Contains(silent.String(), "silent") {
		t.Fatal("silent reuse not labeled")
	}
	unknown := Event{Kind: Kind("custom")}
	if !strings.Contains(unknown.String(), "custom") {
		t.Fatal("unknown kind not rendered")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLog(0)
	for _, e := range sampleEvents() {
		l.Append(e)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, e)
	}
	if len(parsed) != l.Len() {
		t.Fatalf("round trip lost events: %d -> %d", l.Len(), len(parsed))
	}
	for i, e := range l.Events() {
		if e != parsed[i] {
			t.Fatalf("event %d changed: %+v -> %+v", i, e, parsed[i])
		}
	}
}
