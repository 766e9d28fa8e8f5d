package logres

import (
	"bytes"
	"fmt"
	"time"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/storage"
)

// The commit pipeline (DESIGN.md §9). Every state change — a serial
// application, an optimistic attempt, a materialization, a module
// registration — lands through commit, the paper's §4.1 transition
// (E, R, S) → (E′, R′, S′) accepted only if the new instance is
// consistent. Under the write lock it runs
//
//  1. stage — the successor state: the snapshot result as is when the
//     epoch has not moved (fast), its fact delta merged onto the
//     current state otherwise (merge), a whole-state replacement
//     (replace), or the current state with one more library module
//     (register);
//  2. validate — for a deferred application, the maintainer's staged
//     audit (rolled back on any later failure), or scratch validation
//     when the maintainer is unhealthy;
//  3. log — one WAL record (delta, replace or register) before anything
//     is acknowledged;
//  4. publish the state and record its footprint in the commit log;
//  5. compact when due, then maintain the derived view and notify
//     subscribers.
//
// Serial applications evaluate under the lock, so their epoch cannot
// move and footprint validation passes trivially; they still record a
// universal footprint (they carry no analysis an optimistic attempt
// could validate against precisely).

// change is one commit's input: a module application evaluated against
// the state published at epoch (serial: under the write lock), or a
// library registration.
type change struct {
	sr     *module.SnapshotResult // nil for a registration
	reg    *Module
	epoch  uint64
	serial bool
}

// commit runs the pipeline for c. It returns the commit path ("fast",
// "merge", "replace", "register", "read-only"); a non-nil *ConflictError
// (Retries unset) when an optimistic attempt collided with a commit
// since its snapshot and must retry; or an error — a rejection or a WAL
// failure — that fails the application without a retry. On any failure
// the database is untouched. Callers hold the write lock. opts is the
// call's (request-instrumented) configuration: its tracer attributes the
// WAL append and any fsync wait to the request that paid for them, and
// scratch validation runs under the call's own budget.
func (db *Database) commit(opts engine.Options, c change) (path string, conflict *ConflictError, err error) {
	sr := c.sr
	prev := db.st
	rec := &storage.WALRecord{Epoch: db.log.Epoch() + 1}
	var next *module.State
	var fp Footprint // the write set recorded in the commit log

	// Stage.
	switch {
	case c.reg != nil:
		if next, err = module.RegisterModule(prev, c.reg); err != nil {
			return "", nil, err
		}
		// The empty write set still bumps the epoch, so an in-flight
		// whole-state replacement cannot silently drop the registration.
		path, rec.Type, rec.Source = "register", storage.RecRegister, module.RenderModule(c.reg)
	case sr.ReadOnly:
		// Queries install nothing: the answer was computed against a
		// consistent snapshot, which equals the serial order in which the
		// query ran at its snapshot point.
		return "read-only", nil, nil
	case sr.Replace:
		// Whole-state replacement carries no mergeable delta: it is only
		// sound when nothing committed since the snapshot.
		if db.log.Epoch() != c.epoch {
			return "", &ConflictError{Pred: "*", Mine: sr.Footprint, Theirs: Footprint{Universal: true}}, nil
		}
		next, fp = sr.Res.State, Footprint{Universal: true}
		path, rec.Type = "replace", storage.RecReplace
	default:
		if p, theirs, ok := db.log.Validate(c.epoch, sr.Footprint); !ok {
			return "", &ConflictError{Pred: p, Mine: sr.Footprint, Theirs: theirs}, nil
		}
		if db.log.Epoch() == c.epoch {
			next, path = sr.Res.State, "fast"
		} else {
			// Disjoint commits landed since the snapshot: replay the delta
			// onto the current state. The WAL record replays the same way,
			// so recovery reproduces next byte for byte on both paths.
			next, path = module.CommitDelta(prev, sr.Removes, sr.Adds, sr.CounterDelta), "merge"
		}
		fp = Footprint{Writes: sr.Footprint.Writes}
		rec.Type, rec.Writes, rec.CounterDelta = storage.RecDelta, sr.Footprint.Writes, sr.CounterDelta
		rec.Removes, rec.Adds = sr.Removes, sr.Adds
	}
	if c.serial {
		fp = Footprint{Universal: true}
	}

	// Validate.
	var stg staged
	if sr != nil && sr.Deferred {
		if stg, err = db.validateDeferred(opts, next, sr); err != nil {
			return "", nil, err
		}
	}

	// Log.
	if err := db.walAppend(opts.Tracer, rec, next); err != nil {
		if stg.rollback != nil {
			stg.rollback()
		}
		return "", nil, err
	}

	// Publish and record; compact; maintain or notify.
	db.publish(next)
	db.log.Record(fp)
	db.maybeCompact()
	db.maintAfterCommit(opts.Tracer, prev, c, stg)
	return path, nil, nil
}

// walAppend logs one commit record, attributed to the committing call's
// tracer t (nil falls back to the store-wide tracer). A replace record
// embeds next's SaveState bytes. No-op without a store.
func (db *Database) walAppend(t Tracer, rec *storage.WALRecord, next *module.State) error {
	if db.store == nil {
		return nil
	}
	if rec.Type == storage.RecReplace {
		var buf bytes.Buffer
		if err := storage.SaveState(&buf, next); err != nil {
			return fmt.Errorf("logres: serializing commit for wal: %w", err)
		}
		rec.State = buf.Bytes()
	}
	return db.store.AppendWith(t, rec)
}

// staged is a propagation the maintainer staged during validation: the
// exact view diff, the time staging and auditing took, and the undo for
// a commit that fails after it.
type staged struct {
	vd       *engine.ViewDelta
	took     time.Duration
	rollback func()
}

// validateDeferred audits the successor of a deferred application before
// it lands. With a healthy maintainer the delta is staged through it and
// the maintained instance audited incrementally (a rejection rolls the
// staging back); otherwise — the maintainer went unhealthy since the
// snapshot, or the propagation itself failed — the state is validated
// from scratch and the post-commit hook rebuilds the maintainer.
func (db *Database) validateDeferred(opts engine.Options, next *module.State, sr *module.SnapshotResult) (staged, error) {
	if db.maintDeferUsable() {
		start := time.Now()
		vd, rollback, err := db.maint.UpdateStaged(sr.Adds, sr.Removes, next.E, next.Counter)
		if err == nil {
			if verr := db.maintValidate(next.S, vd); verr != nil {
				rollback()
				return staged{}, fmt.Errorf("module: rejected: %w", verr)
			}
			return staged{vd: vd, took: time.Since(start), rollback: rollback}, nil
		}
		db.maintErr = err
	}
	if _, _, err := next.Instance(opts); err != nil {
		return staged{}, fmt.Errorf("module: rejected: %w", err)
	}
	return staged{}, nil
}
