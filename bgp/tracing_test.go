package bgp

import (
	"testing"

	"rfd/trace"
)

func TestTraceHooksRecordFullEpisode(t *testing.T) {
	log := trace.NewLog(0)
	k, n, origin, _ := dampedNet(t, nil)
	n.SetHooks(TraceHooks(log))
	for i := 0; i < 3; i++ {
		pulse(t, k, n, origin)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for _, e := range log.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []trace.Kind{
		trace.KindDeliver, trace.KindPenalty, trace.KindSuppress,
		trace.KindUnsuppress, trace.KindReuse,
	} {
		if kinds[want] == 0 {
			t.Fatalf("no %s events recorded (have %v)", want, kinds)
		}
	}
	// Suppress/unsuppress balance like the OnSuppress hook does.
	if kinds[trace.KindSuppress] != kinds[trace.KindUnsuppress] {
		t.Fatalf("unbalanced suppress (%d) / unsuppress (%d)",
			kinds[trace.KindSuppress], kinds[trace.KindUnsuppress])
	}
	// Deliveries must name both parties and the prefix.
	for _, e := range log.Events() {
		if e.Kind != trace.KindDeliver {
			continue
		}
		if e.Prefix == "" || e.Router == e.Peer {
			t.Fatalf("malformed deliver event %+v", e)
		}
		if !e.Withdraw && e.Path == "" {
			t.Fatalf("announcement without path: %+v", e)
		}
	}
}

func TestTraceHooksRecordCauses(t *testing.T) {
	log := trace.NewLog(0)
	k, n, origin, _ := dampedNet(t, func(c *Config) { c.EnableRCN = true })
	n.SetHooks(TraceHooks(log))
	pulse(t, k, n, origin)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	withCause := 0
	for _, e := range log.Events() {
		if e.Kind == trace.KindDeliver && e.Cause != "" {
			withCause++
		}
	}
	if withCause == 0 {
		t.Fatal("no delivered update carried a root cause with RCN enabled")
	}
}
