package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// maxForwardBody bounds a relayed response body. Plans for the largest
// admissible graphs are well under a megabyte; 64 MiB is a safety net
// against a confused peer, not a tuning knob.
const maxForwardBody = 64 << 20

// ForwardResult is a completed forward: the owner's verbatim response,
// relayed status and all, so the non-owner stays a transparent proxy for
// definitive answers (including errors like 422 that must not be retried or
// re-solved locally).
type ForwardResult struct {
	Status      int
	ContentType string
	Body        []byte
	// Hedged reports that the winning response came from the hedged second
	// attempt rather than the primary.
	Hedged bool
}

// outcome is one attempt's result inside the hedge race.
type outcome struct {
	res    *ForwardResult
	err    error
	hedged bool
}

// ForwardJSON proxies one JSON request to owner's path, with transient-only
// retries and a hedged second attempt per try. reqID propagates the caller's
// X-Request-ID so a forwarded solve traces as one request across the fleet;
// timeout bounds each individual attempt (not the whole call — retries get
// fresh attempts, ctx bounds the total).
//
// Error semantics: a returned error means the owner could not produce ANY
// definitive answer within the attempt budget — the caller should fall back
// to solving locally. A non-2xx status from the owner is NOT an error here
// (except transient 502/503/504, which are retried then surrendered): it is
// the owner's answer, relayed verbatim.
func (f *Fleet) ForwardJSON(ctx context.Context, owner, path string, body []byte, reqID string, timeout time.Duration) (*ForwardResult, error) {
	p := f.byURL[owner]
	if p == nil {
		return nil, fmt.Errorf("fleet: %s is not a member", owner)
	}
	f.forwards.Add(1)
	backoff := f.cfg.ForwardBackoff
	var lastErr error
	for attempt := 0; attempt < f.cfg.ForwardAttempts; attempt++ {
		if attempt > 0 {
			f.forwardRetries.Add(1)
			t := time.NewTimer(jitter(backoff))
			select {
			case <-ctx.Done():
				t.Stop()
				f.forwardErrors.Add(1)
				return nil, ctx.Err()
			case <-t.C:
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		res, err := f.attemptHedged(ctx, p, path, body, reqID, timeout)
		if err != nil {
			lastErr = err
			f.noteFailure(p, err)
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if transientStatus(res.Status) {
			lastErr = fmt.Errorf("fleet: owner %s answered HTTP %d", owner, res.Status)
			continue
		}
		p.noteSuccess()
		return res, nil
	}
	f.forwardErrors.Add(1)
	if lastErr == nil {
		lastErr = errors.New("fleet: forward attempts exhausted")
	}
	return nil, lastErr
}

// transientStatus reports whether a relayed status should be retried rather
// than relayed: gateway-ish failures and explicit overload/drain. Everything
// else — 200, 422 infeasible, 400, even 500 — is the owner's definitive word.
func transientStatus(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// attemptHedged races a primary request against a hedged duplicate launched
// after the peer's EWMA-p99 delay. The duplicate is safe: the owner's pool
// single-flights identical solve keys, so the second request joins the first
// solve rather than doubling work. First definitive outcome wins; the loser
// is cancelled via the shared context.
func (f *Fleet) attemptHedged(ctx context.Context, p *peer, path string, body []byte, reqID string, timeout time.Duration) (*ForwardResult, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan outcome, 2) // both attempts can always deliver
	launch := func(hedged bool) {
		go func() {
			defer func() {
				if r := recover(); r != nil {
					perr := telemetry.Recovered("fleet.forward", r)
					f.log.Error("fleet forward attempt panic contained",
						"peer", p.url, "err", perr, "stack", string(perr.Stack))
					results <- outcome{err: perr, hedged: hedged}
				}
			}()
			start := time.Now()
			res, err := f.doForward(actx, p.url, path, body, reqID, timeout)
			if err == nil {
				p.lat.observe(time.Since(start))
			}
			results <- outcome{res: res, err: err, hedged: hedged}
		}()
	}

	launch(false)
	pending := 1
	hedge := time.NewTimer(f.hedgeDelay(p))
	defer hedge.Stop()
	hedgeLaunched := false

	var lastErr error
	for {
		select {
		case <-hedge.C:
			if !hedgeLaunched {
				hedgeLaunched = true
				f.hedges.Add(1)
				launch(true)
				pending++
			}
		case out := <-results:
			pending--
			if out.err == nil {
				if out.hedged {
					f.hedgeWins.Add(1)
					out.res.Hedged = true
				}
				return out.res, nil
			}
			lastErr = out.err
			if pending == 0 {
				// Both attempts failed (or the only one did, pre-hedge):
				// give the hedge a chance if it has not fired yet, otherwise
				// surrender this attempt.
				if !hedgeLaunched {
					hedgeLaunched = true
					f.hedges.Add(1)
					launch(true)
					pending++
					continue
				}
				return nil, lastErr
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// hedgeDelay is when the duplicate attempt launches: the peer's EWMA-p99
// forward latency clamped to [HedgeMin, HedgeMax], or 250ms before any
// sample exists. Hedging at p99 spends ~1% duplicate load to cut tail
// latency — the standard tail-at-scale trade.
func (f *Fleet) hedgeDelay(p *peer) time.Duration {
	est := p.lat.p99()
	if est <= 0 {
		est = 250 * time.Millisecond
	}
	if est < f.cfg.HedgeMin {
		est = f.cfg.HedgeMin
	}
	if est > f.cfg.HedgeMax {
		est = f.cfg.HedgeMax
	}
	return est
}

// doForward performs one proxied round trip. The hop header makes the owner
// treat the request as terminal (never re-forward); the per-attempt timeout
// layers under the caller's ctx.
func (f *Fleet) doForward(ctx context.Context, owner, path string, body []byte, reqID string, timeout time.Duration) (*ForwardResult, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, f.self)
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody))
	if err != nil {
		return nil, err
	}
	return &ForwardResult{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Body:        data,
	}, nil
}

// ForwardStream opens the owner's SSE stream for relay. No retry and no
// hedge: a duplicated or restarted stream would duplicate events; the
// SSE protocol's own reconnect (client redials with Last-Event-ID) is the
// retry mechanism, and by then the caller re-resolves ownership. The caller
// owns closing the body.
func (f *Fleet) ForwardStream(ctx context.Context, owner, pathAndQuery, lastEventID, reqID string) (*http.Response, error) {
	p := f.byURL[owner]
	if p == nil {
		return nil, fmt.Errorf("fleet: %s is not a member", owner)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+pathAndQuery, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(HopHeader, f.self)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.noteFailure(p, err)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		err := fmt.Errorf("fleet: owner %s stream: HTTP %d: %s", owner, resp.StatusCode, bytes.TrimSpace(msg))
		if transientStatus(resp.StatusCode) {
			f.noteFailure(p, err)
		}
		return nil, err
	}
	p.noteSuccess()
	f.forwards.Add(1)
	return resp, nil
}

// latEstimator tracks a streaming p99 of forward latency with an asymmetric
// EWMA: overshoots pull the estimate up at alpha, undershoots decay it at
// alpha/99, so the fixed point sits near the 99th percentile (the classic
// incremental-quantile trick — no reservoir, O(1) memory).
type latEstimator struct {
	mu      sync.Mutex
	est     time.Duration
	samples int64
}

const latAlpha = 0.2

func (l *latEstimator) observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.samples++
	if l.samples == 1 {
		l.est = d
		return
	}
	diff := float64(d - l.est)
	if diff > 0 {
		l.est += time.Duration(latAlpha * diff)
	} else {
		l.est += time.Duration(latAlpha / 99 * diff)
	}
}

func (l *latEstimator) p99() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.est
}

func (l *latEstimator) p99MS() float64 {
	return float64(l.p99()) / float64(time.Millisecond)
}
