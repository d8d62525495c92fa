package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Truncation reasons reported in Stats.TruncatedBy when a run stopped
// early without error.
const (
	// TruncatedMaxPatterns: the Options.MaxPatterns emission cap tripped.
	TruncatedMaxPatterns = "max_patterns"
	// TruncatedTimeBudget: the Options.TimeBudget soft deadline passed.
	TruncatedTimeBudget = "time_budget"
)

// pollInterval is how many units of search work (nodes visited plus
// projected sequences scanned) pass between cancellation polls. One unit
// is microseconds of work, so the interval keeps detection latency well
// under the documented ~10ms while keeping time.Now/ctx.Err off the hot
// path. Must be a power of two (used as a mask).
const pollInterval = 256

// runControl carries the cancellation and budget state of one mining
// run: the first poll or emission to observe a stop condition records it
// and flips the stop flag, which the search reads on its next work unit.
type runControl struct {
	ctx         context.Context
	deadline    time.Time // zero when no TimeBudget
	maxPatterns int64     // 0 = unlimited

	emitted atomic.Int64
	stop    atomic.Bool

	mu     sync.Mutex
	err    error  // context error; nil for budget truncation
	reason string // TruncatedMaxPatterns / TruncatedTimeBudget
}

func newRunControl(ctx context.Context, opt Options, start time.Time) *runControl {
	c := &runControl{ctx: ctx, maxPatterns: int64(opt.MaxPatterns)}
	if opt.TimeBudget > 0 {
		c.deadline = start.Add(opt.TimeBudget)
	}
	return c
}

// poll re-checks the context and the time budget. The context wins over
// the budget so callers that set both get the error they asked for.
func (c *runControl) poll() {
	if c.stop.Load() {
		return
	}
	if err := c.ctx.Err(); err != nil {
		c.halt(err, "")
		return
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.halt(nil, TruncatedTimeBudget)
	}
}

// halt records the first stop cause and flips the stop flag. Later calls
// keep the original cause.
func (c *runControl) halt(err error, reason string) {
	c.mu.Lock()
	if c.err == nil && c.reason == "" {
		c.err = err
		c.reason = reason
	}
	c.mu.Unlock()
	c.stop.Store(true)
}

// noteEmit counts one emitted pattern toward the MaxPatterns cap and
// stops the search once the cap is reached. The pattern that reaches the
// cap is kept.
func (c *runControl) noteEmit() {
	if c.maxPatterns > 0 && c.emitted.Add(1) >= c.maxPatterns {
		c.halt(nil, TruncatedMaxPatterns)
	}
}

// finish returns the run outcome: a non-nil error for context
// cancellation/deadline, or the truncation cause. The context is checked
// one final time so a cancellation that raced the end of the search
// still reports; the time budget is not — a search that ran to
// completion is complete even if the budget expired moments later.
func (c *runControl) finish() (err error, truncated bool, reason string) {
	if cerr := c.ctx.Err(); cerr != nil {
		c.halt(cerr, "")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err, c.reason != "", c.reason
}
