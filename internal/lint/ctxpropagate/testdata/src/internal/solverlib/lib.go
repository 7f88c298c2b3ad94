// Package solverlib is a ctxpropagate fixture: library code where minting a
// context root is forbidden.
package solverlib

import "context"

func mintsBackground() error {
	ctx := context.Background() // want "context root minted outside main"
	return ctx.Err()
}

func mintsTODO() error {
	ctx := context.TODO() // want "context root minted outside main"
	return ctx.Err()
}

// detachedPool is a legitimate detach point.
//
//lint:detach fixture: work outlives any one request
func detachedPool() error {
	ctx := context.Background()
	return ctx.Err()
}

func lineLevelDetach() error {
	//lint:detach fixture: legitimate detach with a reason
	ctx := context.Background()
	return ctx.Err()
}

// OldSolve is a pre-context compatibility wrapper: its deprecation does not
// excuse the root context it mints.
//
// Deprecated: use OldSolveCtx.
func OldSolve() error {
	return OldSolveCtx(context.Background()) // want "context root minted outside main"
}

// OldSolveCtx is OldSolve with cancellation.
func OldSolveCtx(ctx context.Context) error { return ctx.Err() }

func ctxFirst(ctx context.Context, n int) error { return ctx.Err() }

func ctxBuried(n int, ctx context.Context) error { // want "context.Context must be the first parameter of ctxBuried"
	return ctx.Err()
}

var _ = []any{mintsBackground, mintsTODO, detachedPool, lineLevelDetach, ctxFirst, ctxBuried}
