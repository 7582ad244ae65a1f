package experiment

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled marks a run (or sweep point) that stopped because its context
// was cancelled. Errors carrying it also wrap the context's cause, so
// errors.Is(err, context.Canceled) holds for a plain cancel.
var ErrCanceled = errors.New("experiment: run canceled")

// ErrBudgetExceeded marks a run (or sweep point) that stopped because its
// context's deadline — the caller's time budget — expired. Errors carrying it
// also wrap context.DeadlineExceeded.
var ErrBudgetExceeded = errors.New("experiment: run budget exceeded")

// ctxErr translates a tripped context into the package's typed error,
// preserving the cause chain. Callers must only invoke it when ctx.Err() is
// non-nil.
func ctxErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(cause, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, cause)
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// PanicError is a run panic captured at an isolation boundary (a
// SweepParallel worker or a RunCache owner) and converted into a per-point
// error instead of killing the process. The panic value and a quarantined
// stack trace ride along for diagnosis; Fingerprint identifies the scenario
// when it was cacheable (empty otherwise), so a poisoned input can be traced
// to the scenario that caused it.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Fingerprint is the scenario's cache fingerprint, when it had one.
	Fingerprint string
	// Stack is the goroutine stack captured at recovery, already trimmed to
	// the panicking frames. It is quarantined here — attached to the one
	// point that died — rather than written to stderr, in the spirit of the
	// invariant checker's desync quarantine: one sick run must not take the
	// sweep (or the daemon) down with it.
	Stack []byte
}

// Error renders the panic value; the stack is available on the struct.
func (e *PanicError) Error() string {
	if e.Fingerprint != "" {
		return fmt.Sprintf("experiment: run panicked (fingerprint %.12s…): %v", e.Fingerprint, e.Value)
	}
	return fmt.Sprintf("experiment: run panicked: %v", e.Value)
}
