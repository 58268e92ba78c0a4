package fitness

import (
	"fmt"

	"evogame/internal/game"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Evaluator is the memoized fitness path both engines share: the serial
// engine builds one over the whole table, each distributed SSet rank one
// over its block of rows.  It owns the pair-cache view, the one interned-ID
// mirror of the strategy table and, in EvalIncremental mode, the block of
// the fitness matrix that reads that mirror.  Fitness sums SSet i's payoff
// against its graph neighbors in neighbor order; Update installs a
// strategy change.
//
// The type is not safe for concurrent use; each engine (or rank) owns one.
type Evaluator struct {
	cache  *PairCache
	graph  topology.Graph
	ids    []uint32 // interned strategy ID per SSet
	lo, hi int
	matrix *IncrementalMatrix // nil in EvalCached mode
}

// NewEvaluator is the single gate between the memoized path and an
// engine's full path.  It returns a nil Evaluator (and no error) when the
// engine must replay every game: the effective mode (see EffectiveMode) is
// EvalFull, or the table fails CacheUsable.  Otherwise it interns table,
// evaluates the rows [lo, hi) on graph g (which must span len(table)
// SSets) and plays misses through a view over shared when shared is
// non-nil, or through a private PairCache.
func NewEvaluator(eng *game.Engine, mode EvalMode, shared *PairCache, g topology.Graph, table []strategy.Strategy, lo, hi int) (*Evaluator, error) {
	if g == nil || g.Len() != len(table) {
		return nil, fmt.Errorf("fitness: evaluator needs a graph spanning the table's %d SSets", len(table))
	}
	if lo < 0 || hi < lo || hi > len(table) {
		return nil, fmt.Errorf("fitness: row range [%d,%d) invalid for %d strategies", lo, hi, len(table))
	}
	mode = EffectiveMode(eng, mode)
	if mode == EvalFull || !CacheUsable(eng, table) {
		return nil, nil
	}
	var cache *PairCache
	var err error
	if shared != nil {
		// Lookups are served from (and misses warm) the shared store, while
		// the view's counters and kernel statistics stay this engine's own.
		if cache, err = shared.NewView(eng); err != nil {
			return nil, fmt.Errorf("fitness: shared cache: %w", err)
		}
	} else if cache, err = NewPairCache(eng); err != nil {
		return nil, err
	}
	e := &Evaluator{cache: cache, graph: g, ids: make([]uint32, len(table)), lo: lo, hi: hi}
	for i, s := range table {
		// CacheUsable guarantees every entry is encodable.
		if e.ids[i], err = cache.Interner().Intern(s); err != nil {
			return nil, fmt.Errorf("fitness: interning strategy %d: %w", i, err)
		}
	}
	if mode == EvalIncremental {
		e.matrix = newIncrementalMatrix(cache, g, e.ids, lo, hi)
	}
	return e, nil
}

// Cache returns the evaluator's pair-cache view, or nil for a nil
// Evaluator (an engine on its full path), so callers can hand it straight
// to Metrics.AddCache.
func (e *Evaluator) Cache() *PairCache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Fitness returns SSet i's summed payoff against its graph neighbors.  i
// must lie in the evaluator's row range.  EvalIncremental reads the
// matrix's maintained row sum; EvalCached looks the pairs up by interned ID
// one game.BatchLanes block at a time, so the steady state allocates
// nothing and misses fill through the engine's block kernels.
func (e *Evaluator) Fitness(i int) (float64, error) {
	if i < e.lo || i >= e.hi {
		return 0, fmt.Errorf("fitness: row %d outside evaluated range [%d,%d)", i, e.lo, e.hi)
	}
	if e.matrix != nil {
		return e.matrix.Fitness(i)
	}
	var (
		ids [game.BatchLanes]uint32
		res [game.BatchLanes]game.Result
	)
	my := e.ids[i]
	total := 0.0
	deg := e.graph.Degree(i)
	for k0 := 0; k0 < deg; k0 += game.BatchLanes {
		n := min(game.BatchLanes, deg-k0)
		for k := 0; k < n; k++ {
			ids[k] = e.ids[e.graph.Neighbor(i, k0+k)]
		}
		if err := e.cache.PlayIDBatch(my, ids[:n], res[:n]); err != nil {
			return 0, err
		}
		for k := 0; k < n; k++ {
			total += res[k].FitnessA
		}
	}
	return total, nil
}

// Update records that SSet idx now holds strategy s (an adoption or
// mutation event): it re-interns s into the mirror — the only place the
// codec runs after setup — and, in EvalIncremental mode, invalidates row
// idx and delta-updates column idx of every other built row.
func (e *Evaluator) Update(idx int, s strategy.Strategy) error {
	if idx < 0 || idx >= len(e.ids) {
		return fmt.Errorf("fitness: update index %d outside table of %d strategies", idx, len(e.ids))
	}
	id, err := e.cache.Interner().Intern(s)
	if err != nil {
		return fmt.Errorf("fitness: interning update: %w", err)
	}
	e.ids[idx] = id
	if e.matrix != nil {
		return e.matrix.Update(idx)
	}
	return nil
}
