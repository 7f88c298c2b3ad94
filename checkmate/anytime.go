// The anytime fallback ladder: graceful degradation for deadline-bound
// solves. The request deadline is split into slices escalating from the
// strongest method to the cheapest — Optimal → Interval → Approx →
// Baseline — and the first rung that produces a budget-feasible schedule
// serves it, stamped Schedule.Degraded whenever quality fell short of a
// full solve. A request that any rung can satisfy never returns
// ErrSolveLimit: availability degrades quality, never feasibility.

package checkmate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// anytimeRung is one step of the fallback ladder: the method tried and the
// fraction of the *remaining* deadline it may spend before the ladder
// falls through to the next rung.
type anytimeRung struct {
	method Method
	share  float64
}

// anytimeLadder orders the rungs strongest-first. With every rung running,
// the shares split the deadline roughly 50% / 25% / 15% / 10%: the optimal
// search gets the lion's share (it alone can prove optimality), and each
// fallback still inherits everything its predecessors did not use.
var anytimeLadder = []anytimeRung{
	{Optimal, 0.50},
	{Interval, 0.50},
	{Approx, 0.60},
	{Baseline, 1.00},
}

const (
	// anytimeMinSlice is the least runway worth starting a rung with; below
	// it the ladder stops descending rather than launch solves doomed to
	// time out inside their own setup.
	anytimeMinSlice = 25 * time.Millisecond
	// anytimeSkipFactor governs when a rung is skipped outright: its
	// solve-cost estimate (in ~ms) must exceed this multiple of
	// its slice. The estimates are rough by design, so the factor is
	// generous — a rung is only skipped when it is hopeless, not merely
	// expensive, since even a cut-short optimal search often yields a
	// usable incumbent.
	anytimeSkipFactor = 50
)

// rungFailure records why one ladder rung did not serve the request.
type rungFailure struct {
	method Method
	code   DegradedCode
	detail string
}

// classifyRungErr maps a rung error onto the DegradedCode vocabulary.
func classifyRungErr(err error) DegradedCode {
	var pe *telemetry.PanicError
	switch {
	case errors.As(err, &pe):
		return DegradedPanic
	case errors.Is(err, ErrSolveLimit):
		return DegradedLimit
	case errors.Is(err, ErrInfeasible):
		return DegradedInfeasible
	default:
		return DegradedError
	}
}

// solveAnytimeRequest runs the fallback ladder. Every rung feeds the same
// emitter, so the caller sees one continuous event stream — rung
// transitions are announced as Degraded events — and the winning rung's
// schedule is stamped with the degradation record.
func (w *Workload) solveAnytimeRequest(ctx context.Context, req Request, em *emitter) (*Schedule, error) {
	if req.Unpartitioned {
		// Only the MILP honors Unpartitioned; a fallback rung would silently
		// solve a different problem.
		return nil, fmt.Errorf("checkmate: Method %q requires frontier-advancing stages (Unpartitioned is %q-only)", Anytime, Optimal)
	}
	deadline := time.Now().Add(req.timeLimit())

	var failures []rungFailure
	for i, rung := range anytimeLadder {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining := time.Until(deadline)
		if remaining < anytimeMinSlice {
			break // out of runway; stop descending
		}
		slice := time.Duration(float64(remaining) * rung.share)
		if i == len(anytimeLadder)-1 {
			slice = remaining // the last rung inherits everything left
		}
		if slice < anytimeMinSlice {
			slice = anytimeMinSlice
		}

		// Skip a search rung whose projection is hopeless for its slice:
		// spending the slice to learn nothing starves the rungs below, which
		// could have used the time. The closed-form rungs (Approx, Baseline)
		// are never skipped — they are the safety net.
		if rung.method == Optimal || rung.method == Interval {
			probe := req
			probe.Method = rung.method
			if est := w.EstimateSolveCostFor(probe); est > anytimeSkipFactor*float64(slice.Milliseconds()+1) {
				f := rungFailure{
					method: rung.method,
					code:   DegradedSkipped,
					detail: fmt.Sprintf("%s: skipped (projected ~%.0fms against a %v slice)", rung.method, est, slice.Round(time.Millisecond)),
				}
				failures = append(failures, f)
				if i+1 < len(anytimeLadder) {
					em.degraded(rung.method, anytimeLadder[i+1].method, f.detail)
				}
				continue
			}
		}

		sub := req
		sub.Method = rung.method
		sub.Budgets = nil
		sub.TimeLimit = slice
		var (
			sched *Schedule
			err   error
		)
		switch rung.method {
		case Optimal:
			sched, err = w.solveOptimalRequest(ctx, sub, em)
		case Interval:
			sched, err = w.solveIntervalRequest(ctx, sub, em)
		case Approx:
			sched, err = w.solveApproxRequest(ctx, sub, em)
		case Baseline:
			sched, err = w.solveBaselineRequest(ctx, sub, em)
		}
		if err == nil && sched != nil {
			sched.Method = rung.method
			stampDegraded(sched, rung.method, failures)
			return sched, nil
		}
		// The caller's cancellation passes straight through — no rung below
		// could run anyway.
		if ctx.Err() != nil {
			if err == nil {
				err = ctx.Err()
			}
			return nil, err
		}
		// The MILP searches the full schedule space, so its infeasibility
		// verdict is a property of the instance, not of the deadline — no
		// rung below can disagree, and retrying cannot help.
		if rung.method == Optimal && errors.Is(err, ErrInfeasible) {
			return nil, err
		}
		f := rungFailure{method: rung.method, code: classifyRungErr(err), detail: fmt.Sprintf("%s: %v", rung.method, err)}
		failures = append(failures, f)
		if i+1 < len(anytimeLadder) {
			em.degraded(rung.method, anytimeLadder[i+1].method, f.detail)
		}
	}
	return nil, anytimeExhausted(failures)
}

// stampDegraded marks the winning rung's schedule with the degradation
// record. A schedule is degraded when any earlier rung failed or was
// skipped, or when the serving rung adopted an incumbent without an
// optimality proof; a first-rung proven-optimal solve is not degraded at
// all — the ladder was simply fast enough.
func stampDegraded(sched *Schedule, served Method, failures []rungFailure) {
	unproven := !sched.Optimal
	if len(failures) == 0 && !unproven {
		return
	}
	sched.Degraded = true
	parts := make([]string, 0, len(failures)+1)
	for _, f := range failures {
		parts = append(parts, f.detail)
	}
	if len(failures) > 0 {
		sched.DegradedCode = failures[0].code
		serving := fmt.Sprintf("served by %s", served)
		if unproven {
			serving += " (optimality unproven)"
		}
		parts = append(parts, serving)
	} else {
		sched.DegradedCode = DegradedUnproven
		parts = append(parts, fmt.Sprintf("served %s incumbent, optimality unproven at deadline", served))
	}
	sched.DegradedReason = strings.Join(parts, "; ")
}

// anytimeExhausted composes the terminal error of a ladder with no serving
// rung. Pure infeasibility verdicts (skips aside) report ErrInfeasible —
// retrying cannot help; any limit, panic, or other failure in the mix
// reports ErrSolveLimit — looser limits might.
func anytimeExhausted(failures []rungFailure) error {
	if len(failures) == 0 {
		return fmt.Errorf("%w: anytime deadline too short to start any rung", ErrSolveLimit)
	}
	sentinel := ErrSolveLimit
	infeasible, transient := 0, 0
	details := make([]string, 0, len(failures))
	for _, f := range failures {
		details = append(details, f.detail)
		switch f.code {
		case DegradedInfeasible:
			infeasible++
		case DegradedSkipped:
		default:
			transient++
		}
	}
	if infeasible > 0 && transient == 0 {
		sentinel = ErrInfeasible
	}
	return fmt.Errorf("%w: anytime ladder exhausted (%s)", sentinel, strings.Join(details, "; "))
}
