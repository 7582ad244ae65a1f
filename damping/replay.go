package damping

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// maxLogSeconds bounds the event times ParseUpdateLog accepts: the largest
// whole second count that still fits in a time.Duration.
const maxLogSeconds = float64(math.MaxInt64 / int64(time.Second))

// TimedUpdate is one update in an offline replay: what a router received for
// one (peer, prefix) pair and when.
type TimedUpdate struct {
	// At is the receive time as an offset from the start of the replay.
	At time.Duration
	// Kind is the RFC 2439 classification of the update.
	Kind Kind
}

// ReplayPoint is the damping state right after one replayed update.
type ReplayPoint struct {
	At               time.Duration
	Kind             Kind
	Penalty          float64
	Suppressed       bool
	BecameSuppressed bool
	// ReuseAt is when the route would be reused if no further updates
	// arrived (zero when not suppressed).
	ReuseAt time.Duration
}

// ReplayResult summarizes an offline replay.
type ReplayResult struct {
	// Points holds one entry per replayed update.
	Points []ReplayPoint
	// Suppressions counts suppression onsets.
	Suppressions int
	// SuppressedTotal is the total time the route spent suppressed, through
	// the final reuse (which may lie after the last update).
	SuppressedTotal time.Duration
	// MaxPenalty is the highest post-update penalty observed.
	MaxPenalty float64
	// FinalReuseAt is when suppression finally lifted (zero if the route
	// was never suppressed).
	FinalReuseAt time.Duration
}

// Replay feeds a recorded update sequence through a fresh damping State and
// reports the resulting penalty/suppression timeline. It is the engine
// behind the rfddamp tool: operators can evaluate parameter candidates
// against a recorded flap history without touching a router.
//
// Updates must be in nondecreasing time order. Reuse events between updates
// are modelled exactly as a router's reuse timer would fire them.
func Replay(params Params, updates []TimedUpdate) (*ReplayResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].At < updates[i-1].At {
			return nil, fmt.Errorf("damping: replay updates out of order at index %d", i)
		}
	}
	state := NewState(params)
	res := &ReplayResult{Points: make([]ReplayPoint, 0, len(updates))}
	var suppressedSince time.Duration
	suppressed := false
	var lastAt time.Duration
	for _, u := range updates {
		// A reuse timer may fire between updates.
		if suppressed {
			due := lastAt + state.ReuseIn(lastAt)
			if due <= u.At && state.TryReuse(due) {
				suppressed = false
				res.SuppressedTotal += due - suppressedSince
				res.FinalReuseAt = due
			}
		}
		ev := state.Update(u.At, u.Kind, true)
		lastAt = u.At
		if ev.Penalty > res.MaxPenalty {
			res.MaxPenalty = ev.Penalty
		}
		if ev.BecameSuppressed {
			res.Suppressions++
			suppressedSince = u.At
			suppressed = true
		}
		pt := ReplayPoint{
			At:               u.At,
			Kind:             u.Kind,
			Penalty:          ev.Penalty,
			Suppressed:       ev.Suppressed,
			BecameSuppressed: ev.BecameSuppressed,
		}
		if ev.Suppressed {
			pt.ReuseAt = u.At + ev.ReuseIn
		}
		res.Points = append(res.Points, pt)
	}
	if suppressed {
		due := lastAt + state.ReuseIn(lastAt)
		res.SuppressedTotal += due - suppressedSince
		res.FinalReuseAt = due
	}
	return res, nil
}

// ParseUpdateLog reads a textual update log, one update per line:
//
//	<seconds> <kind>
//
// where kind is one of "withdrawal", "announcement", "attr-change",
// "re-announcement", "initial", "duplicate" (announcement is classified
// automatically from the running route state: initial, re-announcement or
// duplicate). Blank lines and lines starting with '#' are skipped. Events
// may be listed in any order; they are sorted by time.
func ParseUpdateLog(r io.Reader) ([]TimedUpdate, error) {
	sc := bufio.NewScanner(r)
	// The default Scanner token limit is 64 KiB, which a long generated
	// comment can exceed; allow lines up to 1 MiB.
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var raw []struct {
		at   time.Duration
		word string
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("damping: log line %d: want \"<seconds> <kind>\", got %q", line, text)
		}
		// Reject NaN (every comparison with it is false, so it would slip
		// through a plain range check) and times too large to represent as a
		// time.Duration.
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil || math.IsNaN(secs) || secs < 0 || secs > maxLogSeconds {
			return nil, fmt.Errorf("damping: log line %d: bad time %q", line, fields[0])
		}
		raw = append(raw, struct {
			at   time.Duration
			word string
		}{time.Duration(secs * float64(time.Second)), strings.ToLower(fields[1])})
	}
	if err := sc.Err(); err != nil {
		// The scanner stops at the offending line (e.g. one exceeding the
		// buffer limit), which is the line after the last successful scan.
		return nil, fmt.Errorf("damping: log line %d: %w", line+1, err)
	}
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].at < raw[j].at })

	// Classify generic "announcement" lines against running route state.
	updates := make([]TimedUpdate, 0, len(raw))
	present, ever := false, false
	for i, r := range raw {
		var kind Kind
		switch r.word {
		case "withdrawal", "withdraw", "w":
			kind = Classify(true, present, ever, false)
			present = false
		case "announcement", "announce", "a":
			kind = Classify(false, present, ever, false)
			present, ever = true, true
		case "attr-change", "attrchange", "c":
			kind = KindAttrChange
			present, ever = true, true
		case "re-announcement", "reannouncement":
			kind = KindReannouncement
			present, ever = true, true
		case "initial":
			kind = KindInitial
			present, ever = true, true
		case "duplicate":
			kind = KindDuplicate
		default:
			return nil, fmt.Errorf("damping: update %d: unknown kind %q", i+1, r.word)
		}
		updates = append(updates, TimedUpdate{At: r.at, Kind: kind})
	}
	return updates, nil
}
