package vsa

// This file implements bidirectional match-window localization, the
// optimization that lets Eval pay the tagged frontier simulation only
// where matches can actually live. The spanner shapes that dominate
// extraction workloads — Σ*·extraction·Σ* and friends — spend almost the
// whole document in a variable-free prefix or suffix; the simulation's
// per-byte cost (frontier scan, assignment arena, dedup table) is wasted
// there. The localizer replaces it with two byte-class DFA passes:
//
//  1. Forward end-detection: a lazily determinized DFA over the scan
//     automaton — the automaton with emit states truncated (an emit state
//     is all-closed and suffix-universal, so evaluation emits and drops a
//     run the moment it enters one) — marks every boundary where some run
//     completes, plus whether the document can accept at its end through
//     final operation sets. A document with no marked boundary and no
//     end-acceptance has an empty relation: the scan subsumes the old
//     EvalBool prescan in the same single pass. A lone automaton runs it
//     as the one-member case of the fused scan (multiGroup.forward in
//     multi.go): the localizer holds that group, built over this file's
//     scanProg tables.
//  2. Backward start-narrowing: from each candidate end, a DFA over the
//     reversed core automaton (built with automata.Reverse; see
//     reverse.go) walks right to left to the earliest boundary where that
//     match's core — the run segment between its first variable operation
//     and its emission — can begin. Overlapping candidate regions share
//     one union frontier, so the pass costs O(total window span), not
//     O(ends × span).
//
// The tagged simulation then runs per window, seeded with the exact set
// of status-0 states reachable at the window start (reconstructed from
// forward-scan checkpoints by multiGroup.seedAt), with positions kept in
// document coordinates. Every run's core lies inside a window by
// construction, and every seeded state is genuinely reachable, so
// windowed evaluation is byte-identical to whole-document evaluation
// (fuzz-verified against EvalReference). When the analysis cannot apply
// — nullary automata, no per-state status, or a DFA state-bound overflow
// — Eval falls back to the whole-document path: EvalBool prescan plus
// full simulation.

// checkpointStride is the boundary spacing of forward-scan DFA state
// checkpoints (power of two); window seeding replays at most this many
// bytes. 32 trades 12.5% of the document length in pooled scratch for
// halving the replay cost on match-dense documents.
const checkpointStride = 32

// window is a byte range [lo, hi) of the document that the tagged
// simulation must cover.
type window struct {
	lo, hi int
}

// localizer is the compiled bidirectional match-window machinery of an
// automaton: per-state statuses, the forward scan tables, the one-member
// fused group that runs the forward scan over them, and the backward
// narrowing program. Built once under localOnce and read-only
// afterwards; the lazy DFAs beneath it carry their own locks.
type localizer struct {
	ok     bool
	reason string // why localized evaluation is disabled, when !ok

	status []Status
	scan   *scanProg
	group  *multiGroup
	rev    *revProg
}

// localizer returns the compiled window localizer, building it on first
// use. Building freezes the automaton, like every evaluation cache.
func (a *Automaton) localizer() *localizer {
	a.localOnce.Do(func() {
		a.frozen.Store(true)
		a.localVal = a.buildLocalizer()
	})
	return a.localVal
}

func (a *Automaton) buildLocalizer() *localizer {
	loc := &localizer{}
	if len(a.Vars) == 0 {
		loc.reason = "nullary automaton: no variable operations to localize"
		return loc
	}
	st, err := a.Statuses()
	if err != nil {
		// Only hand-built non-functional automata land here; they still
		// evaluate through the whole-document path.
		loc.reason = "no per-state status: " + err.Error()
		return loc
	}
	p := a.prog()
	uni := a.suffixUniversality()
	all := AllClosed(len(a.Vars))
	end := make([]bool, len(a.States))
	for q := range a.States {
		// Emit states: evaluation emits a run's tuple and drops the run
		// the moment it enters one (see evalRun.place), so they are
		// exactly the boundaries where matches complete early.
		end[q] = st[q] == all && uni[q]
	}
	loc.status = st
	loc.scan = buildScanProg(p, end)
	loc.rev = buildRevProg(p, a, st, end)
	loc.ok = true
	// Built from loc directly: a.localizer() would re-enter localOnce.
	loc.group = newGroup([]*Automaton{a}, []*localizer{loc})
	return loc
}

// ---------- forward end-detection ----------

// scanProg is the forward end-detection program: the automaton with
// variable operations stripped and emit states truncated (their outgoing
// edges removed, mirroring evaluation's emit-and-drop), compiled into
// per-(state, class) successor lists. The fused scan DFA (multi.go)
// determinizes it lazily and reads end/hasFinal into its per-member
// end/fin bitmaps.
type scanProg struct {
	nclasses int
	succ     [][]int32 // per state*nclasses: deduplicated successors
	end      []bool
	hasFinal []bool
}

func buildScanProg(p *evalProg, end []bool) *scanProg {
	nc, n := p.nclasses, p.nstates
	s := &scanProg{
		nclasses: nc,
		succ:     make([][]int32, n*nc),
		end:      end,
		hasFinal: p.hasFinal,
	}
	mark := make([]bool, n)
	for q := 0; q < n; q++ {
		if end[q] {
			continue // truncated: runs are emitted and dropped on entry
		}
		for c := 0; c < nc; c++ {
			var out []int32
			for _, e := range p.succ[q*nc+c] {
				if !mark[e.to] {
					mark[e.to] = true
					out = append(out, e.to)
				}
			}
			for _, t := range out {
				mark[t] = false
			}
			s.succ[q*nc+c] = out
		}
	}
	return s
}

// ---------- backward start-narrowing ----------

// narrow runs the backward pass over one member's candidate ends (the
// [lo, hi) runs the forward scan recorded for it) and finals-at-end
// flag, right to left. Ends whose backward frontiers touch share one
// union frontier and merge into a single window, so windows come out
// disjoint and each run's core — traced by the reversed program from the
// end where the run completes down to its first variable operation — lies
// entirely inside one of them. It fills sc.windows in document order and
// returns false if the backward DFA overflowed its state bound.
func (loc *localizer) narrow(p *evalProg, doc string, ends []int32, fin bool, sc *scanScratch) bool {
	r := loc.rev
	sc.windows = sc.windows[:0]
	activeTop, sMin := -1, -1
	cur := dfaDead
	b := 0
	overflow := false
	steps := 0
	flush := func() {
		if activeTop >= 0 && sMin >= 0 {
			sc.windows = append(sc.windows, window{sMin, activeTop})
		}
		activeTop, sMin = -1, -1
	}
	w := r.dfa.Walk()
	// stepDown consumes doc[b-1], moving the frontier one boundary left
	// and recording core starts flagged on the source state.
	stepDown := func() {
		b--
		c := p.classOf[doc[b]]
		if steps++; steps&4095 == 0 {
			w.Yield()
		}
		t := w.States[cur].Trans(c)
		if t == dfaUnknown {
			t = w.Resolve(cur, c)
		}
		if t == dfaOverflow {
			overflow = true
			cur = dfaDead
			return
		}
		if w.States[cur].Payload.start[c] {
			sMin = b
		}
		cur = t
	}
	// seedPoint walks the frontier down to boundary e and injects the end
	// seed (emit states; final-bearing states when fin) there.
	seedPoint := func(e int, fin bool) {
		for cur != dfaDead && b > e {
			stepDown()
			if overflow {
				return
			}
		}
		if cur == dfaDead {
			flush()
			activeTop, b = e, e
		}
		// Cached injections resolve under the read lock already held; the
		// write-locked path runs once per (state, seed) pair.
		seed := r.seedFin
		if !fin {
			seed = r.seedEnd
		}
		to := w.Inject(cur, seed)
		if to == dfaOverflow {
			overflow = true
			return
		}
		cur = to
		if fin && r.finSeedHasStart && sMin < 0 {
			// A status-0 state carries final op sets: a core can live
			// entirely in the final boundary's operations.
			sMin = e
		}
	}
	if fin {
		seedPoint(len(doc), true)
	}
	for i := len(ends); i >= 2 && !overflow; i -= 2 {
		lo, hi := int(ends[i-2]), int(ends[i-1])
		for e := hi - 1; e >= lo && !overflow; e-- {
			seedPoint(e, false)
		}
	}
	for cur != dfaDead && b > 0 && !overflow {
		stepDown()
	}
	w.Release()
	if overflow {
		return false
	}
	flush()
	// Windows were produced right to left; evaluation wants document
	// order (it also keeps checkpoint replay cache-friendly).
	for i, j := 0, len(sc.windows)-1; i < j; i, j = i+1, j-1 {
		sc.windows[i], sc.windows[j] = sc.windows[j], sc.windows[i]
	}
	return true
}
