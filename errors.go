package kpj

import (
	"errors"
	"fmt"

	"kpj/internal/core"
	"kpj/internal/fault"
	"kpj/internal/graph"
)

// Interruption sentinels. A query stopped by Options.Context or
// Options.Budget returns the paths found so far together with a
// *TruncatedError wrapping one of these, so errors.Is works on both:
//
//	paths, err := g.TopKJoin(s, "hotel", 10, &kpj.Options{Context: ctx})
//	if errors.Is(err, kpj.ErrCanceled) { /* paths holds a usable prefix */ }
var (
	// ErrCanceled: the query's context was canceled or its deadline
	// passed before all k paths were found.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExceeded: the query consumed Options.Budget work units
	// before all k paths were found.
	ErrBudgetExceeded = core.ErrBudgetExceeded
)

// Failure sentinels. These never occur in normal operation: ErrWorkerPanic
// means a search worker panicked (the pool recovers it and converts the
// query into a truncated one instead of crashing the process), and
// ErrInjectedFault is the root of every error produced by the
// internal/fault test registry. Both deliver the same contract as the
// interruption sentinels — the paths returned alongside the error are a
// valid prefix of the true answer.
var (
	// ErrWorkerPanic: a panic escaped a search or batch worker and was
	// converted into a query error.
	ErrWorkerPanic = core.ErrWorkerPanic
	// ErrInjectedFault: the error originates from a fault-injection rule
	// (tests and chaos runs only; never fires in production builds because
	// the registry is nil unless installed).
	ErrInjectedFault = fault.ErrInjected
)

// ErrIndexMismatch: LoadIndex was given an index built over a different
// graph generation than the one it is binding to — other adjacency or
// other edge weights.
var ErrIndexMismatch = errors.New("kpj: index was built for a different graph")

// Validation sentinels, re-exported so serving layers can map them to
// client errors (HTTP 400) with errors.Is instead of string matching.
var (
	// ErrNodeRange: a source or target node id is outside [0, NumNodes).
	ErrNodeRange = graph.ErrNodeRange
	// ErrNoCategory: a named category does not exist on the graph.
	ErrNoCategory = graph.ErrNoCategory
	// ErrBadK: k is not positive.
	ErrBadK = core.ErrBadK
	// ErrNoSources: the query has an empty source set.
	ErrNoSources = core.ErrNoSources
	// ErrNoTargets: the query has an empty target set.
	ErrNoTargets = core.ErrNoTargets
	// ErrBadAlpha: Options.Alpha does not exceed 1.
	ErrBadAlpha = core.ErrBadAlpha
)

// IsInvalidQuery reports whether err is caused by the query itself (bad
// ids, empty sets, bad parameters) rather than by the engine — the
// distinction between a client error and a server error.
func IsInvalidQuery(err error) bool {
	return errors.Is(err, ErrNodeRange) ||
		errors.Is(err, ErrNoCategory) ||
		errors.Is(err, ErrBadK) ||
		errors.Is(err, ErrNoSources) ||
		errors.Is(err, ErrNoTargets) ||
		errors.Is(err, ErrBadAlpha) ||
		errors.Is(err, ErrUnknownAlgorithm)
}

// TruncatedError reports a query that was interrupted after finding some
// of its paths. Paths holds the partial result — always a prefix of what
// the uninterrupted query would return, since bounds never alter the
// engine's search order — and Cause wraps ErrCanceled or
// ErrBudgetExceeded.
type TruncatedError struct {
	Paths []Path
	Cause error
}

// Error implements error.
func (e *TruncatedError) Error() string {
	return fmt.Sprintf("kpj: truncated after %d paths: %v", len(e.Paths), e.Cause)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *TruncatedError) Unwrap() error { return e.Cause }

// Truncated extracts partial results from a query error: when err is (or
// wraps) a *TruncatedError it returns the paths found before interruption
// and true. The same paths are also returned by the query call itself, so
// this helper mostly serves call sites that only kept the error.
func Truncated(err error) ([]Path, bool) {
	var te *TruncatedError
	if errors.As(err, &te) {
		return te.Paths, true
	}
	return nil, false
}

// finishQuery converts core paths to public ones and wraps interruption
// errors in a TruncatedError carrying the partial results. It is shared
// by the query entry points and the batch workers.
func finishQuery(paths []core.Path, err error) ([]Path, error) {
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = Path{Nodes: p.Nodes, Length: p.Length}
	}
	if err != nil {
		// Injected faults and recovered worker panics ride the same bound
		// channel as cancellation, so the emitted paths are an equally valid
		// prefix — wrap them the same way instead of discarding them.
		if errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded) ||
			errors.Is(err, ErrInjectedFault) || errors.Is(err, ErrWorkerPanic) {
			return out, &TruncatedError{Paths: out, Cause: err}
		}
		return nil, err
	}
	return out, nil
}
