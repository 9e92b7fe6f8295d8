package service

import (
	"context"
	"errors"
	"time"
)

// ErrorKind classifies a service failure so transports (cmd/kpad) can map
// it to a status mechanically instead of matching on error text. The zero
// value is KindInternal: anything the service did not classify is an
// internal fault, never silently a client error.
type ErrorKind int

const (
	// KindInternal is an unclassified service-side failure.
	KindInternal ErrorKind = iota
	// KindBadRequest is a client mistake: unparsable formula, unknown
	// proposition or assignment, out-of-range agent, malformed upload.
	KindBadRequest
	// KindNotFound names a system the store does not hold.
	KindNotFound
	// KindConflict re-uses an upload name for different content.
	KindConflict
	// KindOverloaded means admission control shed the request: every
	// evaluation slot stayed busy for the whole queue wait.
	KindOverloaded
	// KindTimeout means the caller's deadline expired.
	KindTimeout
	// KindCanceled means the caller went away before the verdict.
	KindCanceled
	// KindPanic means an evaluator panicked; the panic was contained and
	// the request's evaluator dropped.
	KindPanic
)

// String names the kind for logs and JSON error bodies.
func (k ErrorKind) String() string {
	switch k {
	case KindBadRequest:
		return "bad_request"
	case KindNotFound:
		return "not_found"
	case KindConflict:
		return "conflict"
	case KindOverloaded:
		return "overloaded"
	case KindTimeout:
		return "timeout"
	case KindCanceled:
		return "canceled"
	case KindPanic:
		return "panic"
	default:
		return "internal"
	}
}

// Error is the service's typed error: a kind for transports plus the
// underlying cause for humans. It wraps, so errors.Is/As still reach the
// original error (context.DeadlineExceeded, logic.ErrUnknownProp, ...).
type Error struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Msg is an optional human-readable summary; when empty the wrapped
	// error's text is used.
	Msg string
	// Err is the wrapped cause; may be nil when Msg stands alone.
	Err error
	// RetryAfter hints when a shed request is worth retrying; only set for
	// KindOverloaded.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	switch {
	case e.Msg != "" && e.Err != nil:
		return e.Msg + ": " + e.Err.Error()
	case e.Err != nil:
		return e.Err.Error()
	case e.Msg != "":
		return e.Msg
	}
	return "service: " + e.Kind.String()
}

func (e *Error) Unwrap() error { return e.Err }

// KindOf classifies any error: typed service errors report their own kind,
// bare context errors map to Timeout/Canceled, everything else is
// Internal.
func KindOf(err error) ErrorKind {
	var se *Error
	if errors.As(err, &se) {
		return se.Kind
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return KindTimeout
	case errors.Is(err, context.Canceled):
		return KindCanceled
	}
	return KindInternal
}

// RetryAfterOf extracts the retry hint from a shed error (0 otherwise).
func RetryAfterOf(err error) time.Duration {
	var se *Error
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// badRequest wraps a client mistake.
func badRequest(err error) error { return &Error{Kind: KindBadRequest, Err: err} }

// ctxError types a context failure as Timeout or Canceled.
func ctxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return &Error{Kind: KindTimeout, Err: err}
	}
	return &Error{Kind: KindCanceled, Err: err}
}
