// Package sim provides the deterministic discrete-event simulation kernel
// underneath the BGP route-flap-damping experiments.
//
// A Kernel owns a virtual clock and an event queue. Components schedule
// callbacks at virtual instants; Run drains the queue in (time, schedule
// order), advancing the clock as it goes. There is no wall-clock coupling and
// no goroutine concurrency inside a kernel: a run is a pure function of the
// initial schedule and the seed, so every experiment in this repository is
// exactly reproducible. (Parallelism lives a level up — independent runs of a
// parameter sweep execute on separate kernels in separate goroutines.)
//
// Every event is a typed one: AtKind and AtMark take an event kind (AtHandler
// the name and Handler that select one) plus a packed uint64 argument and
// allocate nothing in steady state — the event queue is slab-backed, the
// Timer handle is a value, and no closure is created. A queued event is only
// (kind, arg): the kernel keeps a small table of kinds, one per (name,
// Handler) pair ever scheduled, and finds a pair there with == (Kind), so a
// Handler's dynamic type must be comparable. A component that schedules one
// pair on every event looks its Kind up once. The BGP engine's hot path
// (deliver, MRAI, damping reuse) and fault plans alike schedule this way,
// which is what lets Fork copy any pending schedule: RemapHandlers rebinds
// each kind, not each event, to the forked component.
//
// A component may also hold a place in the event order without occupying the
// queue: Reserve returns a Mark (an instant plus the sequence number an event
// pushed now would take), Ahead tells whether that event would still be
// pending, and AtMark pushes it late under exactly that key, so it fires where
// the eager push would have. The BGP engine keeps its MRAI interval ends this
// way and pushes an expiry only when an announcement waits for it. A drain
// settles the clock at the latest mark still ahead (SetMarks, Settle), where
// the last of those unpushed events would have left it.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rfd/internal/eventq"
	"rfd/internal/xrand"
)

// ErrEventLimit is returned by the Run methods when the kernel has executed
// its configured maximum number of events, which almost always indicates a
// scheduling loop (e.g. a timer that re-arms itself unconditionally).
var ErrEventLimit = errors.New("sim: event limit exceeded")

// ErrInterrupted wraps the context's cause when RunContext or RunUntilContext
// stops at a cooperative stop check. Use errors.Is against context.Canceled
// or context.DeadlineExceeded to distinguish a cancel from a deadline.
var ErrInterrupted = errors.New("sim: run interrupted")

// StopCheckInterval is how many events RunContext executes between
// cooperative ctx checks. The check is amortized so the allocation-free hot
// path stays allocation-free: a context poll costs a few nanoseconds, and at
// this granularity a cancelled run stops within microseconds of wall time
// while the per-event overhead is unmeasurable.
const StopCheckInterval = 1024

// DefaultMaxEvents bounds a run unless overridden with WithMaxEvents. The
// largest experiment in this repository (208-node topology, 10 pulses)
// executes on the order of 10^6 events, so the default leaves ample headroom
// while still catching runaway schedules quickly.
const DefaultMaxEvents = 200_000_000

// Never is the sentinel Kernel.When reports for a timer that is not pending
// — fired, cancelled, or never scheduled. It is a virtual instant no event
// can occupy (the kernel's clock never goes negative).
const Never = time.Duration(-1 << 62)

// Handler receives the typed events of its kinds (see Kind). The
// packed arg is whatever the scheduler passed — typically an index into the
// component's own state (a slab slot, or bit-packed peer/prefix ids).
// Implementations live in the scheduling component; taking the interface of
// a field pointer (&r.someHandler) avoids any per-schedule allocation. The
// dynamic type must be comparable: the kernel finds an event's kind with ==.
type Handler interface {
	HandleEvent(arg uint64)
}

// Timer is a value handle to a scheduled event: the event queue's (slot,
// generation) pair, 8 bytes with no pointer, so a component can keep
// millions of them inline without the garbage collector scanning them. A
// Timer names no kernel; Kernel.Cancel and Kernel.When resolve it. It is
// valid on the kernel that scheduled it and on every fork of that kernel,
// since a fork's queue keeps every slot index and generation: cancelling it
// on one of them leaves the event pending on the others. On an unrelated
// kernel a Timer may name whatever event holds that slot there, so handing it
// one is a programming error. The zero Timer is inert on any kernel. Timers
// stay inert after firing or cancellation, even though the kernel reuses the
// underlying queue slot for later events.
type Timer eventq.Handle

// Cancel stops the timer t. It reports whether t was still pending.
func (k *Kernel) Cancel(t Timer) bool { return k.q.Cancel(eventq.Handle(t)) }

// When returns the virtual time t will fire at, or Never when t is not
// pending (fired, cancelled, or the zero Timer). Callers that compare When
// against the clock or another event time should treat Never as "no
// deadline" — it is far earlier than any schedulable instant.
func (k *Kernel) When(t Timer) time.Duration {
	at, ok := k.q.When(eventq.Handle(t))
	if !ok {
		return Never
	}
	return at
}

// Mark is a reserved place in the kernel's event order: an instant and the
// sequence number an event pushed at the moment of reservation would have
// taken. It is a value; the zero Mark is never ahead.
type Mark struct {
	at  time.Duration
	seq uint64
}

// At returns the mark's instant.
func (m Mark) At() time.Duration { return m.at }

// After reports whether m comes after o in the event order.
func (m Mark) After(o Mark) bool {
	return m.at > o.at || m.at == o.at && m.seq > o.seq
}

// event is what the queue stores: an index into the kernel's kinds and the
// packed arg. It holds no pointer, so the queue's slab is never scanned.
type event struct {
	kind uint32
	arg  uint64
}

// eventKind is what an event's kind names: the handler it fires and the name
// traces and diagnostics see.
type eventKind struct {
	name string
	h    Handler
}

// TraceFunc observes every event as it fires; see Kernel.SetTrace.
type TraceFunc func(at time.Duration, name string)

// Kernel is a deterministic discrete-event scheduler. Construct with
// NewKernel; a Kernel must not be shared between goroutines.
type Kernel struct {
	q     eventq.Queue[event]
	kinds []eventKind
	now   time.Duration
	// last is the sequence number of the last event fired at now (0 when
	// none has): (now, last) is the kernel's position in the event order,
	// which Ahead compares marks against.
	last       uint64
	marks      func() Mark
	rng        *xrand.Rand
	executed   uint64
	maxEvents  uint64
	trace      TraceFunc
	afterEvent TraceFunc
}

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the seed for the kernel's random stream (default 1). Nothing
// in the simulation draws from it; Fork copies it.
func WithSeed(seed uint64) Option {
	return func(k *Kernel) { k.rng = xrand.New(seed) }
}

// WithMaxEvents overrides the runaway-schedule guard.
func WithMaxEvents(n uint64) Option {
	return func(k *Kernel) { k.maxEvents = n }
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{
		rng:       xrand.New(1),
		maxEvents: DefaultMaxEvents,
	}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Executed returns the number of events fired so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled events not yet fired. Reserved
// marks are not events and are not counted.
func (k *Kernel) Pending() int { return k.q.Len() }

// SetTrace installs fn to observe every fired event (nil disables tracing).
func (k *Kernel) SetTrace(fn TraceFunc) { k.trace = fn }

// Trace returns the currently installed trace observer (nil when tracing is
// off). Observers that want to chain — observe events while preserving an
// existing observer — save this, install their own function, and call the
// saved one from it.
func (k *Kernel) Trace() TraceFunc { return k.trace }

// SetAfterEvent installs fn to run after every fired event's callback has
// returned (nil disables). Where SetTrace observes an event about to fire,
// the after-event observer sees the state the event left behind — which is
// what an invariant checker needs: every mutation the callback made is
// visible, and the next event has not yet run. Chaining works exactly as for
// SetTrace: save AfterEvent, install your own function, call the saved one.
func (k *Kernel) SetAfterEvent(fn TraceFunc) { k.afterEvent = fn }

// AfterEvent returns the currently installed after-event observer (nil when
// none is installed).
func (k *Kernel) AfterEvent() TraceFunc { return k.afterEvent }

// NextEventTime returns the virtual time of the earliest pending event and
// whether one exists. It is the kernel's idle-detection hook: between Now and
// that instant nothing in the simulation can change, so a caller that finds
// the gap larger than its grace window knows the system is quiescent for at
// least that long (the convergence watchdog relies on this). Reserved marks
// are not events: a mark that nothing was pushed under does not shorten the
// gap.
func (k *Kernel) NextEventTime() (time.Duration, bool) {
	return k.q.PeekTime()
}

// checkSchedule validates a schedule time against the causal order.
func (k *Kernel) checkSchedule(at time.Duration, name string) {
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule %q at %v before now %v", name, at, k.now))
	}
}

// Kind names one (name, Handler) pair in the kernel's table of event kinds: a
// component that schedules the same pair on every event looks it up once with
// Kernel.Kind and schedules by it (AtKind, AtMark). A Kind is valid on the
// kernel that returned it and on every fork of that kernel, whose table is a
// copy (see Fork).
type Kind uint32

// Kind returns the kind of the (name, h) pair, adding it to the table on
// first use. A linear scan suffices: a kernel sees a handful of kinds (bgp
// has three, and each applied fault plan adds up to five).
func (k *Kernel) Kind(name string, h Handler) Kind {
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	for i := range k.kinds {
		if kd := &k.kinds[i]; kd.h == h && kd.name == name {
			return Kind(i)
		}
	}
	k.kinds = append(k.kinds, eventKind{name: name, h: h})
	return Kind(len(k.kinds) - 1)
}

// AtKind schedules an event of kind kd with arg at absolute virtual time at:
// kd's handler receives HandleEvent(arg) then. It is the allocation-free
// scheduling path: no closure is created and the queue entry lives in a
// pooled slab. Scheduling in the past panics: it would break the causal order
// every experiment relies on.
func (k *Kernel) AtKind(at time.Duration, kd Kind, arg uint64) Timer {
	if at < k.now {
		k.checkSchedule(at, k.kinds[kd].name)
	}
	return Timer(k.q.Push(at, event{kind: uint32(kd), arg: arg}))
}

// AtHandler is AtKind for the kind of (name, h), looked up on every call. The
// name is what traces and diagnostics see.
func (k *Kernel) AtHandler(at time.Duration, name string, h Handler, arg uint64) Timer {
	return k.AtKind(at, k.Kind(name, h), arg)
}

// Reserve returns a Mark at instant at holding the sequence number AtHandler
// would give an event scheduled now. Nothing is queued: the mark stays ahead
// (see Ahead) until the kernel passes the place an event pushed now would
// have fired at, and AtMark may push an event there until then. Reserving in
// the past panics, as scheduling there would.
func (k *Kernel) Reserve(at time.Duration) Mark {
	k.checkSchedule(at, "mark")
	return Mark{at: at, seq: k.q.Reserve()}
}

// Ahead reports whether an event pushed at m's reservation would still be
// pending: m's instant is after Now, or equal to it and not yet passed.
// Kernel.RunUntil(h) passes every mark at or before h; AdvanceTo(at) leaves
// marks at exactly at ahead. The zero Mark is never ahead.
func (k *Kernel) Ahead(m Mark) bool {
	return m.at > k.now || m.at == k.now && m.seq > k.last
}

// AtMark schedules an event of kind kd with arg under m's (time, sequence)
// key, so it fires exactly where an event pushed at the reservation would
// have. The mark must be ahead; at most one event may be pending under it at
// a time.
func (k *Kernel) AtMark(m Mark, kd Kind, arg uint64) Timer {
	if !k.Ahead(m) {
		panic(fmt.Sprintf("sim: schedule %q at passed mark %v", k.kinds[kd].name, m.at))
	}
	return Timer(k.q.PushReserved(m.at, m.seq, event{kind: uint32(kd), arg: arg}))
}

// SetMarks installs fn as the kernel's source of reserved marks (nil removes
// it): fn returns the latest mark its component still holds, or the zero
// Mark. The kernel asks once per drain (see Settle). The source is simulation
// state, not an observer, but it points into one component, so Fork leaves it
// unset for the forked component to install its own.
func (k *Kernel) SetMarks(fn func() Mark) { k.marks = fn }

// Settle ends a drain. With the queue empty, it moves the clock to the latest
// mark still ahead, which is where the last event pushed under a mark would
// have left it. With events pending, or no mark ahead, it does nothing.
// RunContext (and so Run), a Step that finds the queue empty and a ShardGroup
// drain call it; calling it again is harmless.
func (k *Kernel) Settle() {
	if k.q.Len() == 0 {
		k.now, k.last = k.settled()
	}
}

// settled returns the position Settle moves an empty queue's clock to: the
// latest mark still ahead, else where the clock stands.
func (k *Kernel) settled() (time.Duration, uint64) {
	if k.marks != nil {
		if m := k.marks(); k.Ahead(m) {
			return m.at, m.seq
		}
	}
	return k.now, k.last
}

// passTo ends a run up to and including horizon: the clock moves to horizon
// and every mark at or before it is passed, as its event would have fired. A
// horizon before Now changes nothing.
func (k *Kernel) passTo(horizon time.Duration) {
	if horizon >= k.now {
		k.now, k.last = horizon, k.q.LastSeq()
	}
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports whether an event was fired; finding the queue empty, it settles
// the clock (see Settle) and reports false.
func (k *Kernel) Step() bool {
	at, seq, ev, ok := k.q.PopSeq()
	if !ok {
		k.Settle()
		return false
	}
	k.now, k.last = at, seq
	k.executed++
	kd := k.kinds[ev.kind] // a copy: the handler may add kinds
	if k.trace != nil {
		k.trace(k.now, kd.name)
	}
	kd.h.HandleEvent(ev.arg)
	if k.afterEvent != nil {
		k.afterEvent(k.now, kd.name)
	}
	return true
}

// Run is RunContext with a context that never trips.
func (k *Kernel) Run() error { return k.RunContext(context.Background()) }

// RunUntil is RunUntilContext with a context that never trips.
func (k *Kernel) RunUntil(horizon time.Duration) error {
	return k.RunUntilContext(context.Background(), horizon)
}

// RunBefore fires events with time strictly less than horizon, leaving events
// at or after the horizon pending. Unlike RunUntil it does not advance the
// clock to the horizon: the clock is left at the last fired event (or wherever
// it already was), so a caller may still schedule events at any instant >= the
// last fired one — which is exactly what the sharded coordinator's cross-shard
// injection needs at an epoch barrier. Marks pass only as the clock passes
// them: one ordered after the last fired event stays ahead, and one at the
// horizon always does.
//
// The exclusive boundary is deliberate and load-bearing: an epoch [T, T+L)
// must not execute events at exactly T+L, because a cross-shard message sent
// inside the epoch can arrive at exactly T+L (lookahead L is the minimum
// cross-shard latency, and the minimum is attained). RunUntil's inclusive
// horizon would fire the boundary instant's local events before that message
// could be injected, breaking the sequential-equivalence guarantee. See
// TestRunBoundarySemantics for the pinned contract.
func (k *Kernel) RunBefore(horizon time.Duration) error {
	for {
		headAt, ok := k.q.PeekTime()
		if !ok || headAt >= horizon {
			return nil
		}
		if k.executed >= k.maxEvents {
			return fmt.Errorf("%w (%d events, now %v)", ErrEventLimit, k.executed, k.now)
		}
		k.Step()
	}
}

// AdvanceTo moves the clock forward to at without firing anything. It panics
// if an event earlier than at is pending (advancing past it would corrupt the
// causal order) or if at precedes the current clock. Events and marks at
// exactly at stay ahead. The sharded coordinator uses it to align every
// shard's clock at a barrier instant so that subsequent relative scheduling
// (flap pulses, fault plans) sees one consistent "now" across shards.
func (k *Kernel) AdvanceTo(at time.Duration) {
	if at < k.now {
		panic(fmt.Sprintf("sim: advance to %v before now %v", at, k.now))
	}
	if headAt, ok := k.q.PeekTime(); ok && headAt < at {
		panic(fmt.Sprintf("sim: advance to %v past pending event at %v", at, headAt))
	}
	if at > k.now {
		k.now, k.last = at, 0
	}
}

// interrupted builds the typed stop error for a tripped context.
func (k *Kernel) interrupted(ctx context.Context) error {
	return fmt.Errorf("%w at %v (%d events): %w", ErrInterrupted, k.now, k.executed, context.Cause(ctx))
}

// RunContext fires events until the queue is empty, then settles the clock
// (see Settle). It returns ErrEventLimit if the configured maximum number of
// events is exceeded, and has a cooperative stop: the kernel polls ctx every
// StopCheckInterval events (and once on entry) and returns ErrInterrupted —
// wrapping the context's cause — when it has tripped. The kernel stays valid
// and resumable after an interrupt: the clock, queue and RNG are exactly as
// the last fired event left them, so a caller may inspect partial state or
// continue with a fresh context. An un-tripped ctx leaves the event sequence
// unchanged: the poll reads the context but never touches kernel state.
func (k *Kernel) RunContext(ctx context.Context) error {
	next := k.executed // poll on entry, then every StopCheckInterval events
	for k.q.Len() > 0 {
		if k.executed >= k.maxEvents {
			return fmt.Errorf("%w (%d events, now %v)", ErrEventLimit, k.executed, k.now)
		}
		if k.executed >= next {
			if err := ctx.Err(); err != nil {
				return k.interrupted(ctx)
			}
			next = k.executed + StopCheckInterval
		}
		k.Step()
	}
	k.Settle()
	return nil
}

// RunUntilContext fires events with time <= horizon, leaving later events
// pending, and advances the clock to exactly horizon, past every mark at or
// before it. It returns ErrEventLimit and stops cooperatively as RunContext
// does; on interrupt the clock is left at the last fired event's time, not
// advanced to the horizon.
func (k *Kernel) RunUntilContext(ctx context.Context, horizon time.Duration) error {
	_, _, err := k.RunUntilQuiet(ctx, horizon)
	return err
}

// RunUntilQuiet is RunUntilContext that also reports whether the queue ran
// dry on the way to horizon. If it did, quiet is where a drain (RunContext)
// would have left the clock at that moment — the latest mark still ahead,
// else the last fired event — which is where a run that stopped flapping
// there ends, although the clock itself moves on to horizon.
func (k *Kernel) RunUntilQuiet(ctx context.Context, horizon time.Duration) (quiet time.Duration, dry bool, err error) {
	next := k.executed
	for {
		headAt, ok := k.q.PeekTime()
		if !ok {
			quiet, _ = k.settled()
			dry = true
			break
		}
		if headAt > horizon {
			break
		}
		if k.executed >= k.maxEvents {
			return 0, false, fmt.Errorf("%w (%d events, now %v)", ErrEventLimit, k.executed, k.now)
		}
		if k.executed >= next {
			if err := ctx.Err(); err != nil {
				return 0, false, k.interrupted(ctx)
			}
			next = k.executed + StopCheckInterval
		}
		k.Step()
	}
	k.passTo(horizon)
	return quiet, dry, nil
}
