package faults

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"rfd/bgp"
)

// ParsePlan reads the Plan text format, one event per line (the -faults file
// format of cmd/rfdsim). Blank lines and #-comments are ignored. Each line
// is a time, a verb, and the verb's arguments; times use Go duration syntax
// and are relative to the plan epoch:
//
//	# fail the 3-4 link at t=10s for 5s
//	10s  flap 3 4 5s
//	20s  down 1 2          # fail only
//	80s  up   1 2          # restore only
//	30s  reset 3 4         # BGP session reset
//	40s  crash 7 15s       # router 7 down for 15s
//	40s  crash 7           # ... or down for good
//	55s  restart 7
//	0s   loss 60s 0.01     # 1% network-wide loss for 60s
//	0s   loss 60s 1 3 4    # burst outage on link 3-4
func ParsePlan(r io.Reader) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(r)
	// The default Scanner token limit is 64 KiB, which a long generated
	// comment can exceed; allow lines up to 1 MiB.
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		ev, err := parseEvent(fields)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", lineno, err)
		}
		p.Add(ev)
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the offending line (e.g. one exceeding the
		// buffer limit), which is the line after the last successful scan.
		return nil, fmt.Errorf("faults: line %d: %w", lineno+1, err)
	}
	return p, nil
}

// parseEvent decodes one "<at> <verb> <args...>" line.
func parseEvent(fields []string) (Event, error) {
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return Event{}, fmt.Errorf("bad time %q: %w", fields[0], err)
	}
	if len(fields) < 2 {
		return Event{}, fmt.Errorf("missing verb after %q", fields[0])
	}
	verb, args := fields[1], fields[2:]
	switch verb {
	case "down", "up", "reset":
		a, b, err := parseLink(args, 2)
		if err != nil {
			return Event{}, fmt.Errorf("%s: %w", verb, err)
		}
		switch verb {
		case "down":
			return FailLink(at, a, b), nil
		case "up":
			return RestoreLink(at, a, b), nil
		default:
			return ResetSession(at, a, b), nil
		}
	case "flap":
		a, b, err := parseLink(args, 3)
		if err != nil {
			return Event{}, fmt.Errorf("flap: %w", err)
		}
		downFor, err := time.ParseDuration(args[2])
		if err != nil {
			return Event{}, fmt.Errorf("flap: bad duration %q: %w", args[2], err)
		}
		return FlapLink(at, a, b, downFor), nil
	case "crash":
		if len(args) < 1 || len(args) > 2 {
			return Event{}, fmt.Errorf("crash: want <router> [<downFor>], got %d args", len(args))
		}
		id, err := parseRouter(args[0])
		if err != nil {
			return Event{}, fmt.Errorf("crash: %w", err)
		}
		var downFor time.Duration
		if len(args) == 2 {
			if downFor, err = time.ParseDuration(args[1]); err != nil {
				return Event{}, fmt.Errorf("crash: bad duration %q: %w", args[1], err)
			}
		}
		return CrashRouter(at, id, downFor), nil
	case "restart":
		if len(args) != 1 {
			return Event{}, fmt.Errorf("restart: want <router>, got %d args", len(args))
		}
		id, err := parseRouter(args[0])
		if err != nil {
			return Event{}, fmt.Errorf("restart: %w", err)
		}
		return RestartRouter(at, id), nil
	case "loss":
		if len(args) != 2 && len(args) != 4 {
			return Event{}, fmt.Errorf("loss: want <dur> <rate> [<a> <b>], got %d args", len(args))
		}
		dur, err := time.ParseDuration(args[0])
		if err != nil {
			return Event{}, fmt.Errorf("loss: bad duration %q: %w", args[0], err)
		}
		rate, err := strconv.ParseFloat(args[1], 64)
		if err != nil || math.IsNaN(rate) {
			return Event{}, fmt.Errorf("loss: bad rate %q", args[1])
		}
		if len(args) == 2 {
			return NetworkLoss(at, dur, rate), nil
		}
		a, b, err := parseLink(args[2:], 2)
		if err != nil {
			return Event{}, fmt.Errorf("loss: %w", err)
		}
		return LinkLoss(at, dur, rate, a, b), nil
	default:
		return Event{}, fmt.Errorf("unknown verb %q", verb)
	}
}

// parseLink decodes the two leading router ids of args (which must have at
// least want fields in total).
func parseLink(args []string, want int) (a, b bgp.RouterID, err error) {
	if len(args) != want {
		return 0, 0, fmt.Errorf("want %d args, got %d", want, len(args))
	}
	if a, err = parseRouter(args[0]); err != nil {
		return 0, 0, err
	}
	if b, err = parseRouter(args[1]); err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

// parseRouter decodes one router id.
func parseRouter(s string) (bgp.RouterID, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad router id %q", s)
	}
	return bgp.RouterID(v), nil
}
