package trace

import (
	"cmp"
	"slices"
)

// canonicalOrder is the (At, Router) key of Canonical and Merge.
func canonicalOrder(a, b Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Router, b.Router)
}

// Canonical returns the log's events in canonical order: a stable sort by
// (At, Router). The sharded engine records events in per-shard logs, so raw
// record order differs from the sequential engine's even when every event is
// identical; both engines preserve each router's per-instant event order in
// its own stream, so the stable (At, Router) sort maps both recordings onto
// one comparable sequence. Use with Merge to compare engines byte for byte.
func (l *Log) Canonical() []Event {
	out := l.Events()
	slices.SortStableFunc(out, canonicalOrder)
	return out
}

// Merge combines several logs (e.g. one per shard) into a single log in
// canonical (At, Router) order, preserving each input's relative order for
// equal keys — inputs are concatenated in argument order before the stable
// sort, so per-router streams stay intact as long as each router's events
// live in exactly one input log. Dropped counts are summed: a merge of
// truncated logs is itself marked truncated.
func Merge(logs ...*Log) *Log {
	total, dropped := 0, 0
	for _, l := range logs {
		total += l.Len()
		dropped += l.Dropped()
	}
	m := &Log{capacity: total, dropped: dropped}
	m.events = make([]Event, 0, total)
	for _, l := range logs {
		m.events = append(m.events, l.events...)
	}
	slices.SortStableFunc(m.events, canonicalOrder)
	return m
}
