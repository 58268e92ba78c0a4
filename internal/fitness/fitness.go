// Package fitness is the shared incremental-fitness subsystem used by both
// simulation engines (the serial engine in internal/population and the
// distributed engine in internal/parallel).
//
// The observation behind the package is the one that makes the paper's
// all-pairs workload tractable at scale: a noiseless Iterated Prisoner's
// Dilemma game between two deterministic strategies is a pure function of
// the strategy pair.  Replaying it every generation — as the literal
// implementation of the paper's pseudo code does — performs O(S²) games per
// generation even though at most one or two of the S Strategy Sets change
// strategy per generation.  The package provides three layers on top of the
// game kernel:
//
//   - PairCache memoizes game.Result per interned strategy pair (PlayID),
//     so each distinct pair is played at most once for the lifetime of the
//     cache.  Storing a result also stores the mirrored result for the
//     reversed pair, since the opponent's fitness is usually requested next.
//   - IncrementalMatrix maintains the S×S fitness structure across
//     generations: per-SSet fitness row sums are built lazily through the
//     cache and, when the Nature Agent changes the strategy of one SSet,
//     only that SSet's row is invalidated while every other row receives an
//     O(1) delta update to its sum (subtract the stale pair payoff, add the
//     new one).  Per-generation cost therefore drops from O(S²) games to
//     O(D²) distinct-pair kernels amortised over the run plus O(S) updates
//     per adoption/mutation event, where D is the number of distinct
//     strategies present.
//   - Evaluator is what the engines hold: NewEvaluator is the one gate
//     between the memoized path and an engine's full path, and the
//     Evaluator owns the cache view, the interned-ID mirror of the strategy
//     table and, in EvalIncremental mode, the matrix.
//
// # Cache validity conditions
//
// A pair result may be memoized if and only if the game is a pure function
// of the strategy pair:
//
//   - the engine is noiseless (game.Engine.Noise() == 0), and
//   - both strategies are deterministic (pure, not mixed).
//
// NewEvaluator checks both once per run (see CacheUsable) and returns nil
// for noisy or mixed populations, so the engines fall back to their full
// evaluation paths and the random-number streams — and therefore the
// trajectories — are bit-for-bit identical to EvalFull.  PairCache plays
// its misses without a randomness source, so it is reached only through an
// Evaluator that passed this check.
//
// The delta update of IncrementalMatrix subtracts and re-adds float64 pair
// payoffs.  With the standard Prisoner's Dilemma payoff matrix (and any
// integer-valued matrix) every fitness sum is an exactly-representable
// integer, so the delta-updated sums are bit-identical to freshly computed
// ones; this is what lets the engines guarantee EvalFull, EvalCached and
// EvalIncremental produce identical dynamics for identical seeds.
package fitness

import "fmt"

// EvalMode selects how an engine evaluates Strategy-Set fitness.
type EvalMode int

const (
	// EvalFull replays every game of every evaluation, exactly as the
	// paper's implementation does.  It is the reference mode and the one the
	// scaling studies measure, since the volume of game play is the point.
	EvalFull EvalMode = iota
	// EvalCached memoizes per-pair game results in a PairCache that persists
	// across generations; each distinct strategy pair is played at most once
	// for the lifetime of a run.
	EvalCached
	// EvalIncremental additionally maintains per-SSet fitness sums in an
	// IncrementalMatrix, so generations without strategy changes replay
	// nothing and a strategy change costs one row rebuild plus O(S) delta
	// updates.
	EvalIncremental
)

// String implements fmt.Stringer.
func (m EvalMode) String() string {
	switch m {
	case EvalFull:
		return "full"
	case EvalCached:
		return "cached"
	case EvalIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("EvalMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined evaluation modes.
func (m EvalMode) Valid() bool {
	return m >= EvalFull && m <= EvalIncremental
}

// ParseEvalMode maps the names accepted by command-line flags ("full",
// "cached", "incremental") to an EvalMode.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "full":
		return EvalFull, nil
	case "cached":
		return EvalCached, nil
	case "incremental":
		return EvalIncremental, nil
	default:
		return EvalFull, fmt.Errorf("fitness: unknown eval mode %q (want full, cached or incremental)", s)
	}
}
