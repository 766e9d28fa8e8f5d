package engine

import "fmt"

// Semi-naive evaluation. Inside a stratum whose rules are monotone — no
// deletions, no oid invention, no o-value overwrites (class heads), and no
// active-domain enumeration in negations — the inflationary fixpoint
// coincides with the classical least fixpoint, and delta iteration applies:
// each round only joins derivations that use at least one fact discovered
// in the previous round. This is the optimization the ALGRES closure
// operator enables in the paper's prototype; experiment E1 quantifies the
// gap against naive iteration.

// FallbackReason names the first construct that keeps a stratum off
// delta iteration and on the one-step inflationary operator.
type FallbackReason string

const (
	// FallbackNoHead: a rule without a head.
	FallbackNoHead FallbackReason = "no head"
	// FallbackDeletion: a deletion head removes facts, which delta
	// iteration cannot retract.
	FallbackDeletion FallbackReason = "deletion"
	// FallbackInvention: an oid-inventing rule, whose numbering depends
	// on the one-step operator's valuation order.
	FallbackInvention FallbackReason = "oid invention"
	// FallbackClassHead: a class head may overwrite o-values through ⊕.
	FallbackClassHead FallbackReason = "class head"
	// FallbackADNegation: a negated literal enumerating the active
	// domain, which grows with every round.
	FallbackADNegation FallbackReason = "active-domain negation"
	// FallbackFuncRead: a read of a data function defined in the same
	// stratum sees new members without a positive literal over them, so
	// delta restriction would miss those derivations.
	FallbackFuncRead FallbackReason = "same-stratum function read"
	// FallbackDisabled: semi-naive evaluation is switched off.
	FallbackDisabled FallbackReason = "semi-naive disabled"
)

// fallback is the first reason a stratum cannot run under delta
// iteration and the rule that carries it; the zero value means the
// stratum is eligible.
type fallback struct {
	reason FallbackReason
	rule   *crule
}

// String renders the reason for Explain and profiles ("" when eligible).
func (f fallback) String() string {
	if f.rule == nil {
		return string(f.reason)
	}
	return fmt.Sprintf("%s in rule #%d", f.reason, f.rule.id)
}

// semiNaiveFallback reports the first reason delta iteration is unsound
// for the stratum — in rule order, checking each rule for deletion,
// invention, a class head, active-domain negation and a same-stratum
// function read — or the zero fallback when every rule is monotone.
func semiNaiveFallback(stratum []*crule) fallback {
	headPreds := map[string]bool{}
	for _, r := range stratum {
		if r.head == nil {
			return fallback{FallbackNoHead, r}
		}
		headPreds[r.head.pred] = true
	}
	for _, r := range stratum {
		switch {
		case r.head.negated:
			return fallback{FallbackDeletion, r}
		case r.inventive:
			return fallback{FallbackInvention, r}
		case r.head.kind == hClass:
			return fallback{FallbackClassHead, r}
		case adNegation(r):
			return fallback{FallbackADNegation, r}
		}
		for _, fn := range ruleFuncReadsAll(r) {
			if headPreds[fn] {
				return fallback{FallbackFuncRead, r}
			}
		}
	}
	return fallback{}
}

// adNegation reports whether a body literal of r is a negation that
// enumerates the active domain.
func adNegation(r *crule) bool {
	for _, l := range r.body {
		if l.negated && len(l.adVars) > 0 {
			return true
		}
	}
	return false
}

// planStrata records every stratum's fallback once, at compile time;
// evaluation, Explain and the columnar planner read it from there.
func (p *Program) planStrata() {
	p.fallbacks = make([]fallback, len(p.strata))
	for i, s := range p.strata {
		p.fallbacks[i] = semiNaiveFallback(s)
	}
}

// stratumFallback is why stratum i runs on the one-step inflationary
// operator under the program's options ("" when it runs semi-naive).
func (p *Program) stratumFallback(i int) string {
	if !p.opts.SemiNaive {
		return string(FallbackDisabled)
	}
	return p.fallbacks[i].String()
}

// semiNaive runs delta iteration over one stratum, fanning the per-round
// passes across a worker pool when Options.Workers > 1.
func (p *Program) semiNaive(stratum []*crule, f *FactSet, counter *int64) (*FactSet, error) {
	if p.opts.Workers > 1 {
		return p.semiNaiveParallel(stratum, f, counter)
	}
	return p.semiNaiveSerial(stratum, f, counter)
}

// semiNaiveSerial is the single-goroutine delta iteration.
func (p *Program) semiNaiveSerial(stratum []*crule, f *FactSet, counter *int64) (*FactSet, error) {
	cur := f.Clone()

	// Round 0: full evaluation of every rule against the initial set.
	p.traceRoundBegin(0)
	start := p.traceNow()
	delta := NewFactSet()
	c := &evalCtx{p: p, f: cur, counter: counter, deltaIdx: -1, stats: p.stats,
		g: p.armedGuard(), orchestrator: true}
	dminus := NewFactSet()
	for _, r := range stratum {
		err := c.matchBody(r.body, 0, newEnv(), func(e *env) error {
			return c.instantiateHead(r, e, delta, dminus)
		})
		if err != nil {
			return nil, fmt.Errorf("%w (in rule %s)", err, r)
		}
	}
	p.traceRoundEnd(0, delta.TotalSize(), cur.TotalSize(), start)
	for round := 0; delta.TotalSize() > 0; round++ {
		if err := p.checkRound(round, cur, "semi-naive delta iteration"); err != nil {
			return nil, err
		}
		if p.stats != nil {
			p.stats.Steps++
		}
		p.traceRoundBegin(round + 1)
		start := p.traceNow()
		cur.Merge(delta)
		next := NewFactSet()
		c := &evalCtx{p: p, f: cur, counter: counter, stats: p.stats,
			g: p.armedGuard(), round: round + 1, orchestrator: true}
		for _, r := range stratum {
			// One pass per body literal position: that literal ranges over
			// the delta, the others over the full current set.
			for pos, l := range r.body {
				if l.kind != pkClass && l.kind != pkAssoc {
					continue
				}
				if l.negated {
					continue
				}
				if delta.Size(l.pred) == 0 {
					continue
				}
				err := c.matchBodyDelta(r.body, 0, pos, delta, newEnv(), func(e *env) error {
					dplus := NewFactSet()
					if err := c.instantiateHead(r, e, dplus, NewFactSet()); err != nil {
						return err
					}
					for _, pred := range dplus.Preds() {
						for _, fact := range dplus.Facts(pred) {
							if !cur.Has(fact) {
								next.Add(fact)
							}
						}
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("%w (in rule %s)", err, r)
				}
			}
		}
		p.traceRoundEnd(round+1, next.TotalSize(), cur.TotalSize(), start)
		delta = next
	}
	return cur, nil
}

// matchBodyDelta is matchBody with the literal at deltaPos restricted to
// the delta fact set.
func (c *evalCtx) matchBodyDelta(body []resolvedLit, i, deltaPos int, delta *FactSet, e *env, yield func(*env) error) error {
	if i >= len(body) {
		return yield(e)
	}
	next := func(e2 *env) error {
		return c.matchBodyDelta(body, i+1, deltaPos, delta, e2, yield)
	}
	l := body[i]
	if i == deltaPos && (l.kind == pkClass || l.kind == pkAssoc) && !l.negated {
		return c.matchPositive(l, delta, e, next)
	}
	return c.matchLit(l, e, next)
}
