package fitness

import (
	"fmt"

	"evogame/internal/topology"
)

// IncrementalMatrix maintains the per-SSet fitness of the pairwise
// evaluation across generations.  Row i holds the focal payoff of SSet i's
// strategy against every SSet it interacts with; the row sum is the
// "relative fitness" the Nature Agent compares during pairwise learning.
// In a well-mixed population (nil graph) every SSet interacts with every
// other; under a structured topology only graph edges are evaluated, so a
// row costs the SSet's degree in cache lookups instead of S-1.
//
// Strategies are tracked as dense interned IDs read from the owning
// Evaluator's mirror, so row rebuilds and delta updates go through
// PairCache.PlayID — integer pair lookups with no per-game encoding or
// string keys.
//
// Rows are built lazily through the PairCache on the first Fitness request
// and kept current thereafter: when the strategy of SSet t changes, row t
// is invalidated (rebuilt on next request) while every other built row
// adjacent to t receives an O(1) delta update to its sum — subtract the
// stale payoff against t, add the payoff against t's new strategy.  Only
// the range [lo, hi) of rows is materialised, so a distributed rank pays
// memory only for the block of SSets it owns while still tracking the full
// strategy table.
//
// IncrementalMatrix is only used for noiseless populations of deterministic
// strategies (the engines bypass it otherwise), so every pair payoff is a
// pure function of the pair and the delta updates are exact; see the
// package documentation for the cache-validity conditions.
//
// The type is not safe for concurrent use; each Evaluator owns one.
type IncrementalMatrix struct {
	cache  *PairCache
	graph  topology.Graph // nil means well-mixed (all pairs interact)
	ids    []uint32       // the owning Evaluator's ID mirror, one per SSet
	lo, hi int

	// pay[r] holds the focal payoffs of SSet lo+r.  Well-mixed (nil graph)
	// rows are dense: pay[r][j] is the payoff against SSet j.  Graph rows
	// are degree-indexed: pay[r][k] is the payoff against the row's k-th
	// neighbor, so memory is O(rows × degree) rather than O(rows × S).
	pay   [][]float64
	sums  []float64 // sums[r]: sum of pay[r] entries (self excluded)
	built []bool
}

// newIncrementalMatrix returns a matrix over the interned ID mirror ids
// that materialises the rows [lo, hi) of graph g.  The caller (NewEvaluator)
// has validated the range and the graph and keeps ids current.
func newIncrementalMatrix(cache *PairCache, g topology.Graph, ids []uint32, lo, hi int) *IncrementalMatrix {
	if g.Complete() {
		// The complete graph is the well-mixed population; drop it so the
		// hot loops below stay on the branch-free all-pairs path.
		g = nil
	}
	m := &IncrementalMatrix{
		cache: cache,
		graph: g,
		ids:   ids,
		lo:    lo,
		hi:    hi,
		pay:   make([][]float64, hi-lo),
		sums:  make([]float64, hi-lo),
		built: make([]bool, hi-lo),
	}
	for r := range m.pay {
		if g != nil {
			m.pay[r] = make([]float64, g.Degree(lo+r))
		} else {
			m.pay[r] = make([]float64, len(ids))
		}
	}
	return m
}

// neighborPos returns the position of j in i's ascending neighbor list, or
// -1 if the two are not adjacent (binary search, O(log degree)).
func neighborPos(g topology.Graph, i, j int) int {
	lo, hi := 0, g.Degree(i)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.Neighbor(i, mid) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.Degree(i) && g.Neighbor(i, lo) == j {
		return lo
	}
	return -1
}

func (m *IncrementalMatrix) buildRow(i int) error {
	r := i - m.lo
	my := m.ids[i]
	sum := 0.0
	if m.graph != nil {
		// Degree-indexed row: entry k is the payoff against the k-th
		// neighbor, so the rebuild is O(degree) work and memory.
		deg := m.graph.Degree(i)
		for k := 0; k < deg; k++ {
			j := m.graph.Neighbor(i, k)
			res, err := m.cache.PlayID(my, m.ids[j])
			if err != nil {
				return fmt.Errorf("fitness: row %d vs %d: %w", i, j, err)
			}
			m.pay[r][k] = res.FitnessA
			sum += res.FitnessA
		}
		m.sums[r] = sum
		m.built[r] = true
		return nil
	}
	for j := range m.ids {
		if j == i {
			m.pay[r][j] = 0
			continue
		}
		res, err := m.cache.PlayID(my, m.ids[j])
		if err != nil {
			return fmt.Errorf("fitness: row %d vs %d: %w", i, j, err)
		}
		m.pay[r][j] = res.FitnessA
		sum += res.FitnessA
	}
	m.sums[r] = sum
	m.built[r] = true
	return nil
}

// Fitness returns the pairwise fitness of SSet i (the summed focal payoff
// against every SSet it interacts with), building the row through the cache
// if it has not been materialised yet.  i must lie in [lo, hi).
func (m *IncrementalMatrix) Fitness(i int) (float64, error) {
	if !m.built[i-m.lo] {
		if err := m.buildRow(i); err != nil {
			return 0, err
		}
	}
	return m.sums[i-m.lo], nil
}

// Update records that SSet idx changed strategy; the owning Evaluator has
// already written its new ID into the mirror.  Row idx is invalidated and
// every other built row that interacts with idx gets a delta update of its
// column idx, costing one ID-pair cache lookup each — O(S) work
// well-mixed, O(degree) under a sparse topology, with new game kernels only
// for pairs never seen before.
func (m *IncrementalMatrix) Update(idx int) error {
	id := m.ids[idx]
	if m.graph != nil {
		// Only idx's neighbors interact with it: walk the neighbor list
		// (ascending, like the row scan below) instead of scanning and
		// adjacency-testing every materialised row.
		deg := m.graph.Degree(idx)
		for k := 0; k < deg; k++ {
			i := m.graph.Neighbor(idx, k)
			if i < m.lo || i >= m.hi || !m.built[i-m.lo] {
				continue
			}
			col := neighborPos(m.graph, i, idx)
			if col < 0 {
				return fmt.Errorf("fitness: graph edge %d->%d has no reverse edge", idx, i)
			}
			if err := m.deltaUpdate(i, idx, col, id); err != nil {
				return err
			}
		}
	} else {
		for r := range m.built {
			i := m.lo + r
			if i == idx || !m.built[r] {
				continue
			}
			if err := m.deltaUpdate(i, idx, idx, id); err != nil {
				return err
			}
		}
	}
	if idx >= m.lo && idx < m.hi {
		m.built[idx-m.lo] = false
	}
	return nil
}

// deltaUpdate refreshes built row i after idx's strategy changed to the
// strategy behind id: subtract the stale pair payoff from the row sum, add
// the new one.  col is the row-local payoff index of idx (idx itself for
// dense well-mixed rows, idx's neighbor position for degree-indexed graph
// rows).
func (m *IncrementalMatrix) deltaUpdate(i, idx, col int, id uint32) error {
	r := i - m.lo
	res, err := m.cache.PlayID(m.ids[i], id)
	if err != nil {
		return fmt.Errorf("fitness: delta update row %d vs %d: %w", i, idx, err)
	}
	m.sums[r] += res.FitnessA - m.pay[r][col]
	m.pay[r][col] = res.FitnessA
	return nil
}
