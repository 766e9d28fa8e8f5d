package module

import (
	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/guard"
	"logres/internal/value"
)

// SnapshotResult is one application evaluated against a frozen
// published state — outside the database lock for an optimistic
// attempt, under it for a serial one. It carries everything the commit
// pipeline needs: the effective footprint to validate, and either a
// fact-level delta to merge onto the current committed state or a
// whole-state replacement (rule/schema-changing modes, which conflict
// with every concurrent commit anyway).
type SnapshotResult struct {
	// Res is the ordinary Apply result against the snapshot.
	Res *Result
	// Footprint is the effective access set (Analyze): the static
	// analysis widened by what the run actually touched ($oid$ when
	// identity moved).
	Footprint guard.Footprint
	// Adds and Removes are the extensional delta E1 − E0 and E0 − E1,
	// valid when neither ReadOnly nor Replace is set. Commit order is
	// removes first, then adds.
	Adds, Removes []engine.Fact
	// CounterDelta is the oid-counter advance of the run.
	CounterDelta int64
	// ReadOnly marks an application with no state change (RIDI): commit
	// validates reads but installs nothing.
	ReadOnly bool
	// Replace marks an application whose commit must replace the whole
	// state (rule/schema changes): valid only when nothing committed
	// since the snapshot.
	Replace bool
	// Deferred marks an application whose final instance validation was
	// skipped (ApplySnapshot's deferValidation): the committer must audit
	// consistency and the passive constraints before installing the state.
	Deferred bool
}

// ApplySnapshot applies m to the snapshot state st and packages the
// outcome for commit. st must be a published snapshot: its fact set
// frozen, never mutated (Apply's clone discipline guarantees the
// application itself cannot touch it). With deferValidation an eligible
// application (CanDeferValidation — exactly the delta-committing ones)
// skips its final instance validation and the result carries
// Deferred=true; ineligible applications validate as usual. The result
// carries no footprint until Analyze computes one.
func ApplySnapshot(st *State, m *ast.Module, mode ast.Mode, opts engine.Options, deferValidation bool) (*SnapshotResult, error) {
	delta := CanDeferValidation(st, m, mode)
	deferred := deferValidation && delta
	res, err := apply(st, m, mode, opts, deferred)
	if err != nil {
		return nil, err
	}
	// The fast and replace paths publish the result as is: build its read
	// indexes here, outside the commit's write lock.
	res.State.E.Freeze()
	sr := &SnapshotResult{Res: res, Deferred: deferred}
	switch {
	case mode == ast.RIDI:
		sr.ReadOnly = true
	case !delta:
		// Rule-changing modes and schema- or rule-changing data variants
		// replace the whole state.
		sr.Replace = true
	default:
		sr.CounterDelta = res.State.Counter - st.Counter
		sr.Adds, sr.Removes = res.State.E.Diff(st.E)
	}
	return sr, nil
}

// Analyze computes the footprint an optimistic commit validates: the
// static analysis of applying m to st (StaticFootprint), widened by what
// the run actually touched. Serial commits record a universal write and
// skip it.
func (sr *SnapshotResult) Analyze(st *State, m *ast.Module, mode ast.Mode, opts engine.Options) error {
	fp, err := StaticFootprint(st, m, mode, opts)
	if err != nil {
		return err
	}
	sr.Footprint = *fp
	if sr.ReadOnly || sr.Replace {
		return nil
	}
	widenWrites(&sr.Footprint, sr.Adds, sr.Removes)
	touchedOID := sr.CounterDelta != 0
	if !touchedOID {
		// Class facts re-binding pre-existing oids (oid unification from
		// non-invented sources) touch object identity without advancing
		// the counter; serialize them through $oid$ so two such writers
		// cannot place one oid in disjoint hierarchies unseen.
		for _, f := range sr.Adds {
			if f.IsClass && f.OID <= value.OID(st.Counter) {
				touchedOID = true
				break
			}
		}
	}
	if touchedOID {
		sr.Footprint.Reads = append(sr.Footprint.Reads, PredOID)
		sr.Footprint.Writes = append(sr.Footprint.Writes, PredOID)
		sr.Footprint.Normalize()
	}
	return nil
}

// widenWrites adds every predicate the delta touched to the footprint's
// write set. A touched predicate the static analysis did not predict
// means the analysis missed a write, so the footprint turns Universal —
// conservative.
func widenWrites(fp *guard.Footprint, adds, removes []engine.Fact) {
	widened := false
	for _, fs := range [][]engine.Fact{adds, removes} {
		for _, f := range fs {
			if !containsStr(fp.Writes, f.Pred) {
				fp.Writes = append(fp.Writes, f.Pred)
				fp.Universal = true
				widened = true
			}
		}
	}
	if widened {
		fp.Normalize()
	}
}

func containsStr(s []string, p string) bool {
	for _, x := range s {
		if x == p {
			return true
		}
	}
	return false
}

// CommitDelta applies a validated fact delta to a committed state: clone
// the extension, apply removes then adds, advance the counter by
// counterDelta, and keep R/S/Lib (a delta commit never changes them). The
// returned state is freshly built and safe to publish. Both the live
// merge commit and WAL replay of a delta record go through it, so a
// replayed state's SaveState bytes equal the committed state's.
func CommitDelta(committed *State, removes, adds []engine.Fact, counterDelta int64) *State {
	next := &State{
		E:       committed.E.Clone(),
		R:       committed.R,
		S:       committed.S,
		Counter: committed.Counter + counterDelta,
		Lib:     committed.Lib,
	}
	for _, f := range removes {
		next.E.Remove(f)
	}
	for _, f := range adds {
		next.E.Add(f)
	}
	return next
}

// RegisterModule returns the successor of st whose library additionally
// holds m. The published library is never mutated in place (concurrent
// snapshot holders may read it outside the lock): the library is cloned
// and the rest of the state shared. Both Database.Register and WAL
// replay of a registration record go through it.
func RegisterModule(st *State, m *ast.Module) (*State, error) {
	lib := NewLibrary()
	if st.Lib != nil {
		lib = st.Lib.Clone()
	}
	if err := lib.Register(m); err != nil {
		return nil, err
	}
	next := *st
	next.Lib = lib
	return &next, nil
}

// subtractionChangesRules reports whether removing sub from rules would
// actually shrink the persistent rule store.
func subtractionChangesRules(rules, sub []*ast.Rule) bool {
	return len(subtractRules(rules, sub)) != len(rules)
}
