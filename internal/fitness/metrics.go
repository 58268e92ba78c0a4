package fitness

import "evogame/internal/game"

// Metrics is the flat observability export shared by both engines: one
// struct of counters a run (or one rank of a run) accumulated, with no
// nesting so it can be dumped straight into logs, JSON benchmark tables or
// dashboards.  All counters are totals over the run; divide by Generations
// for per-generation rates.  Metrics from several ranks combine with Merge.
type Metrics struct {
	// Generations is the number of generations the counters cover.
	Generations int

	// PairCache counters (zero when the run had no cache, e.g. EvalFull or a
	// noisy population).  CachePlays = CacheMisses is the number of games
	// the engine actually executed through the cache.  CacheBypassed always
	// reads 0, because NewEvaluator routes non-cacheable runs to the
	// engines' full paths; the field stays only until the benchmark
	// harness, which reads it by name, can drop it.
	CachePlays    int64
	CacheHits     int64
	CacheMisses   int64
	CacheBypassed int64
	CacheEvicted  int64

	// Kernel-mode mix: how many games each inner-loop implementation played
	// (see game.KernelStats).  BatchGames/BatchCalls give the mean SWAR lane
	// occupancy via BatchLaneOccupancy.
	ScalarGames int64
	CycleGames  int64
	BatchGames  int64
	BatchCalls  int64

	// Nature events.
	PCEvents  int
	Adoptions int
	Mutations int

	// Fault-tolerance counters (zero on a fault-free run).  Restarts is the
	// number of supervised relaunches from a checkpoint; RetriedSends,
	// DroppedMessages and DelayedMessages mirror the fabric's injected-fault
	// accounting (mpi.Stats) summed over ranks; RecoveryNanos is the wall
	// time the supervisor spent reloading checkpoints and backing off.
	Restarts        int
	RetriedSends    int64
	DroppedMessages int64
	DelayedMessages int64
	RecoveryNanos   int64
}

// AddEngine folds an engine's kernel-mix counters into m.
func (m *Metrics) AddEngine(s game.KernelStats) {
	m.ScalarGames += s.ScalarGames
	m.CycleGames += s.CycleGames
	m.BatchGames += s.BatchGames
	m.BatchCalls += s.BatchCalls
}

// AddCache folds a pair cache's counters into m.  A nil cache adds nothing,
// so engines can call it unconditionally.
func (m *Metrics) AddCache(c *PairCache) {
	if c == nil {
		return
	}
	m.CachePlays += c.Plays()
	m.CacheHits += c.Hits()
	m.CacheMisses += c.Misses()
	m.CacheEvicted += c.Evicted()
}

// Merge folds another rank's metrics into m.  Generations is taken as the
// maximum rather than summed: ranks of one run advance in lockstep.
func (m *Metrics) Merge(o Metrics) {
	if o.Generations > m.Generations {
		m.Generations = o.Generations
	}
	m.CachePlays += o.CachePlays
	m.CacheHits += o.CacheHits
	m.CacheMisses += o.CacheMisses
	m.CacheBypassed += o.CacheBypassed
	m.CacheEvicted += o.CacheEvicted
	m.ScalarGames += o.ScalarGames
	m.CycleGames += o.CycleGames
	m.BatchGames += o.BatchGames
	m.BatchCalls += o.BatchCalls
	m.PCEvents += o.PCEvents
	m.Adoptions += o.Adoptions
	m.Mutations += o.Mutations
	m.Restarts += o.Restarts
	m.RetriedSends += o.RetriedSends
	m.DroppedMessages += o.DroppedMessages
	m.DelayedMessages += o.DelayedMessages
	m.RecoveryNanos += o.RecoveryNanos
}

// BatchLaneOccupancy returns the mean fraction of the 64 SWAR lanes
// occupied per batch call, or 0 if no batches ran.
func (m Metrics) BatchLaneOccupancy() float64 {
	return game.KernelStats{BatchGames: m.BatchGames, BatchCalls: m.BatchCalls}.BatchLaneOccupancy()
}
