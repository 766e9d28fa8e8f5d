package logres

import (
	"context"
	"time"

	"logres/internal/guard"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/parser"
)

// Optimistic concurrent module application (DESIGN.md §9). Serial
// Exec/Apply hold the write lock for the whole evaluation; concurrent
// application holds it only for the commit pipeline (commit.go):
//
//  1. snapshot — read-lock just long enough to capture the published
//     (frozen) state and the commit-log epoch;
//  2. apply — run the module against the snapshot outside any lock,
//     recording its read/write predicate footprint (static analysis of
//     the compiled rules, narrowed/widened by the runtime delta);
//  3. commit — write-lock and run the same stage → validate → WAL →
//     publish → notify pipeline serial applications use; staging checks
//     the footprint against every write committed since the snapshot
//     epoch and merges the fact delta onto the current state (or takes
//     the result as is when nothing intervened);
//  4. retry — on conflict, back off (capped exponential) and restart
//     from a fresh snapshot, up to the retry budget; exhaustion surfaces
//     a *ConflictError naming both footprints.
//
// Disjoint modules therefore evaluate in parallel and only serialize
// for the (cheap) commit; conflicting modules serialize through
// retries, producing a state bit-identical to some serial application
// order.

// DefaultMaxRetries is the retry bound of ApplyConcurrent when neither
// WithMaxRetries nor a per-call Budget.MaxRetries sets one.
const DefaultMaxRetries = 8

// Backoff schedule for conflict retries: capped exponential, starting
// small (conflicts usually resolve as soon as the winner's commit
// finishes) and never sleeping long enough to dominate latency.
const (
	retryBaseBackoff = 200 * time.Microsecond
	retryMaxBackoff  = 10 * time.Millisecond
)

// WithMaxRetries bounds the commit retries of every concurrent
// application (Budget.MaxRetries). n > 0 sets the bound, n == 0
// restores DefaultMaxRetries, n < 0 disables retries entirely — the
// first conflict surfaces the *ConflictError.
func WithMaxRetries(n int) Option {
	return func(db *Database) { db.opts.Budget.MaxRetries = n }
}

// ExecConcurrent parses and applies a module like Exec, but
// optimistically: evaluation runs against a snapshot outside the write
// lock and commits via footprint validation, so applications touching
// disjoint predicates proceed in parallel. See ApplyConcurrent for the
// protocol and failure mode.
func (db *Database) ExecConcurrent(src string, options ...CallOption) (*Result, error) {
	return db.ExecConcurrentContext(db.ctx(), src, options...)
}

// ExecConcurrentContext is ExecConcurrent under an explicit context.
func (db *Database) ExecConcurrentContext(ctx context.Context, src string, options ...CallOption) (*Result, error) {
	m, err := parser.ParseModule(src)
	if err != nil {
		return nil, err
	}
	return db.ApplyConcurrentContext(ctx, m, m.Mode, options...)
}

// ApplyConcurrent applies a parsed module with optimistic concurrency
// control: snapshot, evaluate outside the lock, validate the read/write
// footprint against commits since the snapshot, merge the delta under a
// short critical section. Conflicts retry with capped exponential
// backoff up to the retry budget (WithMaxRetries / Budget.MaxRetries,
// default DefaultMaxRetries); exhaustion returns a *ConflictError
// carrying both footprints. All other failure modes (rejection, budget,
// cancellation, panic) are identical to Apply, and the database state
// is untouched on any error.
func (db *Database) ApplyConcurrent(m *Module, mode Mode, options ...CallOption) (*Result, error) {
	return db.ApplyConcurrentContext(db.ctx(), m, mode, options...)
}

// ApplyConcurrentContext is ApplyConcurrent under an explicit context;
// cancellation aborts evaluation between rounds and backoff sleeps
// immediately, surfacing a *CanceledError.
func (db *Database) ApplyConcurrentContext(ctx context.Context, m *Module, mode Mode, options ...CallOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The call configuration cannot change between attempts (SetTracer's
	// contract is that in-flight evaluations keep the tracer they started
	// with), so options and the retry budget resolve once, outside the
	// attempt loop. Only the state/epoch snapshot is re-read per attempt.
	db.mu.RLock()
	opts := applyCallOptions(db.opts, options)
	db.mu.RUnlock()
	opts.Ctx = ctx
	// Request-scoped observability resolves once too: all attempts (and
	// their commit, conflict, retry, and WAL events) belong to the same
	// originating request and the same profile.
	finish := instrumentCall(ctx, &opts, options)
	defer finish()
	tracer := opts.Tracer

	maxRetries := opts.Budget.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}

	for attempt := 0; ; attempt++ {
		// Snapshot: the published state is frozen and never mutated in
		// place, so holding the pointer outside the lock is safe; the
		// epoch read under the same lock tells validation exactly which
		// commits this evaluation could not have seen.
		db.mu.RLock()
		st := db.st
		epoch := db.log.Epoch()
		deferOK := db.maintDeferUsable()
		db.mu.RUnlock()

		// Deferred validation (view.go): when the maintainer can audit the
		// committed instance incrementally, skip the from-scratch instance
		// computation inside the snapshot application — the commit stages
		// the propagation and validates before the commit lands.
		sr, err := module.ApplySnapshot(st, m, mode, opts, deferOK)
		if err == nil {
			err = sr.Analyze(st, m, mode, opts)
		}
		if err != nil {
			return nil, err
		}
		if hook := hooks.ConcurrentPreCommit; hook != nil {
			hook(attempt)
		}

		path, conflict, err := func() (string, *ConflictError, error) {
			db.mu.Lock()
			defer db.mu.Unlock()
			return db.commit(opts, change{sr: sr, epoch: epoch})
		}()
		if err != nil {
			// A rejection or a WAL failure is not a conflict: no retry (a
			// failed store refuses writes until the database is reopened).
			return nil, err
		}
		if conflict == nil {
			if tracer != nil {
				tracer.Event(obs.Event{Kind: obs.KindModuleCommit, Pred: m.Name,
					Round: attempt, Count: len(sr.Adds) + len(sr.Removes), Detail: path})
			}
			return &Result{Answer: sr.Res.Answer, Mode: mode}, nil
		}

		if tracer != nil {
			tracer.Event(obs.Event{Kind: obs.KindModuleConflict, Pred: conflict.Pred, Round: attempt,
				Detail: "mine: " + conflict.Mine.String() + "; theirs: " + conflict.Theirs.String()})
		}
		if attempt >= maxRetries {
			conflict.Retries = attempt
			if tracer != nil {
				// The abort event is what flight recorders key their
				// dump on and what the metrics adapter counts under
				// logres_aborts_total{axis="retries"}.
				tracer.Event(obs.Event{Kind: obs.KindAbort, Axis: string(AxisRetries),
					Stratum: -1, Round: attempt, Detail: conflict.Error()})
			}
			return nil, conflict
		}

		backoff := retryBackoff(attempt)
		if tracer != nil {
			// Round is the attempt whose conflict triggered this backoff —
			// the same index the preceding KindModuleConflict carries, so a
			// conflict/retry pair diffs as one attempt in a trace.
			tracer.Event(obs.Event{Kind: obs.KindModuleRetry, Pred: m.Name,
				Round: attempt, Duration: backoff})
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, &guard.CanceledError{Stratum: -1, Round: attempt, Err: ctx.Err()}
		case <-timer.C:
		}
	}
}

// retryBackoff returns the capped exponential backoff for a retry
// attempt. Doubling stops as soon as the cap is reached, so a large
// attempt count (reachable via WithMaxRetries / Budget.MaxRetries) can
// never shift the duration into overflow — the naive
// `retryBaseBackoff << attempt` wraps negative or zero once attempt
// exceeds ~45, the `> retryMaxBackoff` clamp no longer applies, and the
// timer fires immediately, turning conflict backoff into a hot spin.
func retryBackoff(attempt int) time.Duration {
	d := retryBaseBackoff
	for i := 0; i < attempt; i++ {
		d <<= 1
		if d >= retryMaxBackoff {
			return retryMaxBackoff
		}
	}
	return d
}

// CommitEpoch returns the database's current commit epoch — the number
// of state-changing commits recorded so far (introspection/tests).
func (db *Database) CommitEpoch() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.log.Epoch()
}

// commitLogWindow exposes the validation window for tests.
func (db *Database) commitLogWindow() int { return db.log.Window() }
