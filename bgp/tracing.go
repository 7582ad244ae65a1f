package bgp

import (
	"time"

	"rfd/trace"
)

// TraceHooks returns hooks that record every observation into log, at the
// times they are handed.
func TraceHooks(log *trace.Log) Hooks {
	return Hooks{
		OnDeliver: func(at time.Duration, msg Message) {
			e := trace.Event{
				At:       at,
				Kind:     trace.KindDeliver,
				Router:   int(msg.To),
				Peer:     int(msg.From),
				Prefix:   string(msg.Prefix),
				Withdraw: msg.Withdraw,
			}
			if len(msg.Path) > 0 {
				e.Path = msg.Path.String()
			}
			if !msg.Cause.IsZero() {
				e.Cause = msg.Cause.String()
			}
			log.Append(e)
		},
		OnSuppress: func(at time.Duration, router, peer RouterID, prefix Prefix, on bool) {
			kind := trace.KindSuppress
			if !on {
				kind = trace.KindUnsuppress
			}
			log.Append(trace.Event{
				At: at, Kind: kind,
				Router: int(router), Peer: int(peer), Prefix: string(prefix),
			})
		},
		OnReuse: func(at time.Duration, router, peer RouterID, prefix Prefix, noisy bool) {
			log.Append(trace.Event{
				At: at, Kind: trace.KindReuse,
				Router: int(router), Peer: int(peer), Prefix: string(prefix),
				Noisy: noisy,
			})
		},
		OnPenalty: func(at time.Duration, router, peer RouterID, prefix Prefix, penalty float64) {
			log.Append(trace.Event{
				At: at, Kind: trace.KindPenalty,
				Router: int(router), Peer: int(peer), Prefix: string(prefix),
				Penalty: penalty,
			})
		},
	}
}
