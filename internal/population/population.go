// Package population implements the serial (single-process) evolutionary
// game dynamics engine: a population of Strategy Sets evolving under
// pairwise-comparison learning and mutation driven by the Nature Agent.
//
// The serial engine is the scientific reference implementation: the parallel
// engine of internal/parallel reproduces exactly the same dynamics (same
// seed, same sequence of events, same strategy-table history) while
// distributing the game play across ranks and worker goroutines.  It is also
// the engine behind the Figure 2 validation study (emergence of Win-Stay
// Lose-Shift).
package population

import (
	"context"
	"fmt"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/nature"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Config describes a population simulation.
type Config struct {
	// NumSSets is the number of Strategy Sets (the paper's validation run
	// uses 5,000).
	NumSSets int
	// AgentsPerSSet is the number of agents per Strategy Set (the paper's
	// validation run uses 4 agents per SSet: 20,000 agents / 5,000 SSets).
	AgentsPerSSet int
	// MemorySteps is the memory depth of the strategies (1..6).
	MemorySteps int
	// Rounds is the number of IPD rounds per game (paper: 200).
	Rounds int
	// Noise is the per-move error probability (Section III-F).
	Noise float64
	// Game selects the scenario played (payoff matrix + validity
	// constraints); the zero value is the paper's IPD spec, which keeps
	// legacy configurations bit-identical.  See game.LookupSpec for the
	// registry of built-in scenarios.
	Game game.Spec
	// UpdateRule selects how a learner decides to adopt a teacher's
	// strategy; nil is the paper's Fermi pairwise-comparison rule.  See
	// dynamics.Lookup for the registry of built-in rules.
	UpdateRule dynamics.Rule
	// Topology selects the interaction graph: which SSets meet in game play
	// (fitness is the summed payoff against graph neighbors only) and which
	// pairs the Nature Agent can select for learning.  The zero value is the
	// paper's well-mixed population, bit-identical per seed to the
	// pre-topology engine.  The graph is built deterministically from Seed;
	// see topology.Parse for the registry of built-in families.
	Topology topology.Spec
	// PCRate, MutationRate and Beta configure the Nature Agent; zero values
	// select the paper's defaults (0.1, 0.05, β=1).
	PCRate       float64
	MutationRate float64
	Beta         float64
	// Seed seeds all randomness; runs with the same Config are identical.
	Seed uint64
	// Workers is validated (negative values are rejected) but otherwise
	// unused: the serial engine plays every game on the calling goroutine.
	// The field stays only until the benchmark harness, which sets it by
	// name, can drop it.
	Workers int
	// EvalMode routes fitness evaluation through the shared
	// internal/fitness subsystem.  The zero value, fitness.EvalFull,
	// evaluates each learning event afresh, playing each distinct strategy
	// pair once per event; EvalCached memoizes each distinct strategy pair
	// across generations, and EvalIncremental additionally maintains
	// per-SSet fitness sums with row/column invalidation.  Noisy or mixed
	// populations transparently fall back to the EvalFull path so that all
	// three modes stay bit-for-bit identical for a given seed.
	EvalMode fitness.EvalMode
	// StateMode and AccumMode select the kernel optimization levels
	// (Figure 3); the zero values are the optimized settings
	// (game.StateRolling, game.AccumLookup).
	StateMode game.StateMode
	AccumMode game.AccumMode
	// Kernel selects the deterministic-game inner loop; the zero value,
	// game.KernelAuto, closes the joint-state cycle in closed form whenever
	// that is bit-exact, and game.KernelFullReplay forces the
	// round-by-round reference loop.  All kernel modes produce identical
	// trajectories per seed.
	Kernel game.KernelMode
	// InitialStrategies optionally fixes the initial strategy of each SSet;
	// it must have exactly NumSSets entries.  When nil, every SSet starts
	// with an independent uniformly random pure strategy, as in the paper's
	// validation study.
	InitialStrategies []strategy.Strategy
	// SampleEvery controls how often abundance samples are recorded (in
	// generations).  Zero disables periodic sampling; a sample is always
	// taken at the end of the run.
	SampleEvery int
	// CheckpointPath, when non-empty, makes Run write a resumable (format
	// v4) checkpoint of the final state; combined with CheckpointEvery it
	// also receives the periodic mid-run checkpoints.  Restore resumes a
	// run from such a file bit-identically.
	CheckpointPath string
	// CheckpointEvery writes a mid-run checkpoint to CheckpointPath every
	// this many generations (0 disables periodic checkpointing).  Each
	// write atomically replaces the previous one.
	CheckpointEvery int
	// CheckpointLabel is recorded as the checkpoint's free-form Label.
	CheckpointLabel string
	// SharedCache, when non-nil, makes the run evaluate fitness through a
	// view over the given cache's store instead of a private PairCache, so
	// independent runs of the same configuration (ensemble replicates) share
	// one interning registry and one memoized pair table.  It only takes
	// effect when the run would build a cache anyway (EvalMode != EvalFull
	// and the noiseless/deterministic gate holds); the noise and mixed-
	// strategy bypasses ignore it, so RNG streams never move and every run
	// stays bit-identical per seed to the same run with a private cache.
	// The cache must be bound to the identical game (same spec, payoff,
	// rounds and memory depth) or New fails.
	SharedCache *fitness.PairCache
	// Faults optionally installs a deterministic fault plan on the run:
	// the serial engine is the fault model's rank 0, so crash events
	// scheduled for rank 0 fire at the matching generation and abort Run
	// with a *faults.CrashError (drop/delay events are meaningless without
	// a fabric and never fire here).  Nil runs fault-free.  The supervisor
	// (internal/supervise) classifies injected crashes as transient and
	// resumes from the latest checkpoint.
	Faults *faults.Plan
}

func (c Config) validate() error {
	if c.NumSSets < 2 {
		return fmt.Errorf("population: need at least 2 SSets, got %d", c.NumSSets)
	}
	if c.AgentsPerSSet < 1 {
		return fmt.Errorf("population: agents per SSet must be positive, got %d", c.AgentsPerSSet)
	}
	if c.MemorySteps < 1 || c.MemorySteps > game.MaxMemorySteps {
		return fmt.Errorf("population: memory steps %d out of range [1,%d]", c.MemorySteps, game.MaxMemorySteps)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("population: rounds must be positive, got %d", c.Rounds)
	}
	if c.Workers < 0 {
		return fmt.Errorf("population: Workers must be non-negative, got %d", c.Workers)
	}
	if c.InitialStrategies != nil && len(c.InitialStrategies) != c.NumSSets {
		return fmt.Errorf("population: %d initial strategies for %d SSets", len(c.InitialStrategies), c.NumSSets)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("population: SampleEvery must be non-negative, got %d", c.SampleEvery)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("population: CheckpointEvery must be non-negative, got %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("population: CheckpointEvery requires CheckpointPath")
	}
	if !c.EvalMode.Valid() {
		return fmt.Errorf("population: invalid eval mode %v", c.EvalMode)
	}
	return nil
}

// AbundanceSample records the composition of the population at one
// generation.
type AbundanceSample struct {
	Generation int
	// Distinct is the number of distinct strategies present.
	Distinct int
	// TopStrategy is the String rendering of the most abundant strategy and
	// TopFraction the fraction of SSets holding it.
	TopStrategy string
	TopFraction float64
	// WSLSFraction and TFTFraction are the fractions of SSets holding the
	// canonical WSLS / TFT strategy for the configured memory depth;
	// AllDFraction likewise for always-defect.
	WSLSFraction float64
	TFTFraction  float64
	AllDFraction float64
	// MeanDefectingStates is the mean fraction of states in which the
	// population's strategies prescribe defection (a coarse cooperativity
	// measure over the whole strategy table).
	MeanDefectingStates float64
}

// Result summarises a completed run.
type Result struct {
	// Generations is the number of generations simulated.
	Generations int
	// FinalStrategies is the strategy table at the end of the run.
	FinalStrategies []strategy.Strategy
	// Samples holds the periodic abundance samples (the last entry is always
	// the final generation).
	Samples []AbundanceSample
	// NatureStats counts the evolutionary events that occurred.
	NatureStats nature.Stats
	// TotalGamesPlayed counts two-player IPD games executed by the fitness
	// evaluations.
	TotalGamesPlayed int64
	// Metrics is the run's flat observability export: cache counters,
	// kernel-mode mix and nature events (see fitness.Metrics).
	Metrics fitness.Metrics
}

// Model is an in-progress population simulation.  It is not safe for
// concurrent use, and it plays every game on the calling goroutine.
type Model struct {
	cfg    Config
	engine *game.Engine
	graph  topology.Graph
	nat    *nature.Agent
	table  *nature.Table
	src    *rng.Source
	gen    int
	games  int64
	// eval implements the EvalCached / EvalIncremental modes of the shared
	// fitness subsystem; it is nil when the model runs on the per-event
	// EvalFull path (including the noise/mixed-strategy bypass).
	eval *fitness.Evaluator
	// event is the per-event evaluation's reusable working memory.
	event eventScratch
}

// eventScratch is the working memory of one per-event fitness evaluation
// (fitnessPairID).  Its maps are cleared rather than reallocated and its
// slices keep their capacity, so steady-state evaluation allocates nothing.
type eventScratch struct {
	queued  map[uint64]int     // miss key -> index into the miss slices
	payoff  map[uint64]float64 // the per-event distinct-pair cache
	focals  []game.Player      // miss i is focals[i] against opps[i]
	opps    []game.Player
	srcs    []*rng.Source // miss i's split source, nil when it needs none
	arena   []rng.Source  // backing store of srcs: slot i belongs to miss i
	results []game.Result
}

// New validates the configuration and builds a Model ready to run.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	engine, err := game.NewEngine(game.EngineConfig{
		Game:        cfg.Game,
		Rounds:      cfg.Rounds,
		MemorySteps: cfg.MemorySteps,
		Noise:       cfg.Noise,
		StateMode:   cfg.StateMode,
		AccumMode:   cfg.AccumMode,
		Kernel:      cfg.Kernel,
	})
	if err != nil {
		return nil, err
	}
	// The graph is built from the seed directly (not from the root stream)
	// so adding the topology layer leaves the nature/init/game streams — and
	// therefore every pre-topology trajectory — untouched.
	graph, err := cfg.Topology.Build(cfg.NumSSets, cfg.Seed)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	natSrc := root.Split()
	initSrc := root.Split()
	gameSrc := root.Split()

	nat, err := nature.New(nature.Config{
		PCRate:       cfg.PCRate,
		MutationRate: cfg.MutationRate,
		Beta:         cfg.Beta,
		MemorySteps:  cfg.MemorySteps,
		Rule:         cfg.UpdateRule,
		Topology:     graph,
	}, natSrc)
	if err != nil {
		return nil, err
	}

	initial := cfg.InitialStrategies
	if initial == nil {
		initial = make([]strategy.Strategy, cfg.NumSSets)
		for i := range initial {
			initial[i] = strategy.RandomPure(cfg.MemorySteps, initSrc)
		}
	}
	table, err := nature.NewTable(initial)
	if err != nil {
		return nil, err
	}
	eval, err := fitness.NewEvaluator(engine, cfg.EvalMode, cfg.SharedCache, graph, initial, 0, cfg.NumSSets)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	if eval == nil {
		// The per-event path keys its distinct-pair cache by interned ID
		// pair, so the table tracks IDs; the evaluator keeps its own mirror.
		if err := table.Bind(intern.NewRegistry()); err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
	}
	return &Model{cfg: cfg, engine: engine, graph: graph, nat: nat, table: table, src: gameSrc, eval: eval}, nil
}

// effectiveIdentity resolves the scenario identity strings a Config records
// in checkpoints: the zero-value Game and nil UpdateRule map to the paper's
// defaults exactly as the engines resolve them.
func effectiveIdentity(cfg Config) (spec game.Spec, rule string, topo string) {
	spec = cfg.Game
	if spec.Name == "" {
		spec = game.IPD()
	}
	rule = "fermi"
	if cfg.UpdateRule != nil {
		rule = cfg.UpdateRule.Name()
	}
	return spec, rule, cfg.Topology.String()
}

// Snapshot exports the model's mid-run state as a resumable (format v4)
// checkpoint: the typed strategy table, the Nature Agent's RNG stream and
// event counters, and the game-play stream.  Restore rebuilds a Model from
// it that continues the run bit-identically.
func (m *Model) Snapshot() checkpoint.Snapshot {
	spec, rule, topo := effectiveIdentity(m.cfg)
	st := m.nat.ExportState()
	return checkpoint.Snapshot{
		Generation:  m.gen,
		Seed:        m.cfg.Seed,
		MemorySteps: m.cfg.MemorySteps,
		Game:        spec.Name,
		Payoff:      spec.Payoff.Table(),
		UpdateRule:  rule,
		Topology:    topo,
		Strategies:  m.Strategies(),
		Label:       m.cfg.CheckpointLabel,
		Resume:      true,
		Engine:      checkpoint.EngineSerial,
		Streams: []checkpoint.Stream{
			{Name: checkpoint.StreamNature, State: st.RNG},
			{Name: checkpoint.StreamGame, State: m.src.State()},
		},
		PCEvents:    st.PCEvents,
		Adoptions:   st.Adoptions,
		Mutations:   st.Mutations,
		GamesPlayed: m.games,
	}
}

// checkIdentity verifies that a snapshot was produced by a run with the
// same identity as cfg, via the shared checkpoint.Identity comparison.
func checkIdentity(cfg Config, snap checkpoint.Snapshot) error {
	spec, rule, topo := effectiveIdentity(cfg)
	return snap.CheckIdentity("population", checkpoint.Identity{
		NumSSets:    cfg.NumSSets,
		MemorySteps: cfg.MemorySteps,
		Seed:        cfg.Seed,
		Game:        spec.Name,
		Payoff:      spec.Payoff.Table(),
		UpdateRule:  rule,
		Topology:    topo,
	})
}

// Restore rebuilds a Model from a checkpoint so the run continues where the
// snapshot was taken.  For a resumable (format v4, serial-engine) snapshot
// the continuation is bit-identical: the strategy table, generation
// counter, event counters and both RNG streams are restored, so running N
// more generations produces exactly what an uninterrupted run would have.
// For a final-only snapshot (pre-v4, or written without resume state) the
// restore is a warm start: the typed strategy table and generation counter
// carry over but the RNG streams restart from cfg.Seed, so the continuation
// is a valid run from that population, not a replay.  The config must
// describe the original run (same shape, seed and scenario identity);
// Config.InitialStrategies must be nil — the table comes from the snapshot.
func Restore(cfg Config, snap checkpoint.Snapshot) (*Model, error) {
	if cfg.InitialStrategies != nil {
		return nil, fmt.Errorf("population: Restore takes the strategy table from the checkpoint; InitialStrategies must be nil")
	}
	if err := checkIdentity(cfg, snap); err != nil {
		return nil, err
	}
	cfg.InitialStrategies = snap.Strategies
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m.gen = snap.Generation
	if !snap.Resume {
		return m, nil
	}
	if snap.Engine != checkpoint.EngineSerial {
		return nil, fmt.Errorf("population: checkpoint carries %q-engine resume state; the serial engine cannot restore it", snap.Engine)
	}
	natState, ok := snap.Stream(checkpoint.StreamNature)
	if !ok {
		return nil, fmt.Errorf("population: resume checkpoint is missing the %q stream", checkpoint.StreamNature)
	}
	gameState, ok := snap.Stream(checkpoint.StreamGame)
	if !ok {
		return nil, fmt.Errorf("population: resume checkpoint is missing the %q stream", checkpoint.StreamGame)
	}
	if err := m.nat.RestoreState(nature.State{
		RNG:         natState,
		Generations: snap.Generation,
		PCEvents:    snap.PCEvents,
		Adoptions:   snap.Adoptions,
		Mutations:   snap.Mutations,
	}); err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	if err := m.src.SetState(gameState); err != nil {
		return nil, fmt.Errorf("population: restoring game stream: %w", err)
	}
	m.games = snap.GamesPlayed
	return m, nil
}

// Topology returns the interaction graph the model runs on (the complete
// graph for a well-mixed population).
func (m *Model) Topology() topology.Graph { return m.graph }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Generation returns the number of generations simulated so far.
func (m *Model) Generation() int { return m.gen }

// PopulationSize returns the total number of agents (SSets × agents per
// SSet); it is constant across generations.
func (m *Model) PopulationSize() int { return m.cfg.NumSSets * m.cfg.AgentsPerSSet }

// Strategies returns a snapshot of the current strategy table.
func (m *Model) Strategies() []strategy.Strategy { return m.table.Snapshot() }

// GamesPlayed returns the number of IPD games executed so far.  In the
// cached evaluation modes every game runs through the pair cache, so the
// count is the cache's play counter (misses plus bypassed games).
func (m *Model) GamesPlayed() int64 {
	if c := m.eval.Cache(); c != nil {
		return c.Plays()
	}
	return m.games
}

// FractionOf returns the fraction of SSets currently holding a strategy
// equal to s.
func (m *Model) FractionOf(s strategy.Strategy) float64 {
	count := 0
	for i := 0; i < m.table.Len(); i++ {
		if m.table.Get(i).Equal(s) {
			count++
		}
	}
	return float64(count) / float64(m.table.Len())
}

// fitnessPair evaluates the relative fitness of the two SSets selected for a
// pairwise comparison.  Each SSet's fitness is the summed payoff of its
// strategy against the strategies of its topology neighbors (every other
// SSet in the population for the default well-mixed graph).
func (m *Model) fitnessPair(a, b int) (float64, float64, error) {
	if m.eval == nil {
		return m.fitnessPairID(a, b)
	}
	fa, err := m.eval.Fitness(a)
	if err != nil {
		return 0, 0, err
	}
	fb, err := m.eval.Fitness(b)
	if err != nil {
		return 0, 0, err
	}
	return fa, fb, nil
}

// pairKey packs an ordered pair of interned strategy IDs into a map key.
func pairKey(my, opp uint32) uint64 { return uint64(my)<<32 | uint64(opp) }

// fitnessPairID evaluates a learning event's teacher t and learner l on
// interned IDs, with a per-event distinct-pair cache: each distinct strategy
// pair is played once, and its reverse pairing's payoff is reused.  The
// result is that of evaluating t and then l one game at a time against one
// shared cache — which is what fixes the trajectory — but every miss of
// both SSets is played in one PlayPairs batch.
//
// That works because which pairs miss depends only on the interned IDs:
// the teacher's evaluation caches exactly its own pairs and their reverses,
// so both SSets' misses, and the m.src split each one takes, are known
// before any game is played.  For mixed strategies the ID keys are exact
// where String() was lossy (it truncates to eight states at two decimals),
// so two nearly-equal mixed strategies are evaluated separately rather than
// silently reusing one another's payoff.
func (m *Model) fitnessPairID(t, l int) (float64, float64, error) {
	ev := &m.event
	if ev.queued == nil {
		ev.queued = make(map[uint64]int)
		ev.payoff = make(map[uint64]float64)
	}
	clear(ev.queued)
	clear(ev.payoff)
	ev.focals, ev.opps, ev.srcs = ev.focals[:0], ev.opps[:0], ev.srcs[:0]
	if need := m.graph.Degree(t) + m.graph.Degree(l); len(ev.arena) < need {
		ev.arena = make([]rng.Source, need)
	}
	m.collectMisses(t)
	m.collectMisses(l)
	if n := len(ev.opps); n > 0 {
		if cap(ev.results) < n {
			ev.results = make([]game.Result, n)
		}
		ev.results = ev.results[:n]
		if err := m.engine.PlayPairs(ev.focals, ev.opps, ev.srcs, ev.results); err != nil {
			return 0, 0, err
		}
		m.games += int64(n)
	}
	return m.sumPayoffs(t), m.sumPayoffs(l), nil
}

// collectMisses is pass 1 of fitnessPairID for SSet i: it queues the
// distinct pairs the one-game-at-a-time evaluation would have played, in
// first-encounter order, splitting each miss's randomness in exactly that
// evaluation's order — the split order is what keeps the trajectory
// bit-identical.  A pair is not a miss when it or its reverse is already
// queued: for the learner that is precisely "cached by the teacher's
// evaluation, or already queued by the learner's", and for the teacher the
// reverse test only matches its own self-pair.
func (m *Model) collectMisses(i int) {
	ev := &m.event
	my := m.table.Get(i)
	myID := m.table.ID(i)
	deg := m.graph.Degree(i)
	for k := 0; k < deg; k++ {
		j := m.graph.Neighbor(i, k)
		oppID := m.table.ID(j)
		key := pairKey(myID, oppID)
		if _, ok := ev.queued[key]; ok {
			continue
		}
		if _, ok := ev.queued[pairKey(oppID, myID)]; ok {
			continue
		}
		opp := m.table.Get(j)
		var src *rng.Source
		if m.engine.Noise() > 0 || !my.Deterministic() || !opp.Deterministic() {
			src = &ev.arena[len(ev.opps)]
			m.src.SplitInto(src)
		}
		ev.queued[key] = len(ev.opps)
		ev.focals = append(ev.focals, my)
		ev.opps = append(ev.opps, opp)
		ev.srcs = append(ev.srcs, src)
	}
}

// sumPayoffs is pass 2 of fitnessPairID for SSet i: it replays the
// one-game-at-a-time probe/fill order against the per-event cache with the
// plays precomputed.  Filling forward then reverse at the first encounter —
// not up front — matters for the noisy self-pair (another SSet holding the
// focal strategy): its key is its own reverse, so the first occurrence must
// see FitnessA while later occurrences see the FitnessB overwrite, exactly
// as the serial loop did.
func (m *Model) sumPayoffs(i int) float64 {
	ev := &m.event
	myID := m.table.ID(i)
	total := 0.0
	deg := m.graph.Degree(i)
	for k := 0; k < deg; k++ {
		oppID := m.table.ID(m.graph.Neighbor(i, k))
		key := pairKey(myID, oppID)
		payoff, ok := ev.payoff[key]
		if !ok {
			res := ev.results[ev.queued[key]]
			payoff = res.FitnessA
			ev.payoff[key] = payoff
			// The reverse pairing gives the opponent's payoff; the partner
			// SSet's evaluation may read it.
			ev.payoff[pairKey(oppID, myID)] = res.FitnessB
		}
		total += payoff
	}
	return total
}

// applyStrategyChange installs a new strategy for SSet idx everywhere the
// engine tracks it: the authoritative table and, in the cached modes, the
// evaluator's ID mirror and fitness matrix.
func (m *Model) applyStrategyChange(idx int, s strategy.Strategy) error {
	if err := m.table.Set(idx, s); err != nil {
		return err
	}
	if m.eval != nil {
		return m.eval.Update(idx, s)
	}
	return nil
}

// Step advances the simulation by one generation: a possible
// pairwise-comparison learning event followed by a possible mutation, with
// strategy-table updates applied immediately, as in the paper's Nature Agent
// loop.
func (m *Model) Step() error {
	// Pairwise comparison learning.
	if teacher, learner, ok := m.nat.MaybeSelectPC(m.cfg.NumSSets); ok {
		fitT, fitL, err := m.fitnessPair(teacher, learner)
		if err != nil {
			return fmt.Errorf("population: generation %d: %w", m.gen, err)
		}
		adopted, _ := m.nat.DecideAdoption(fitT, fitL)
		m.nat.RecordPC(adopted)
		if adopted {
			newStrat := m.table.Get(teacher).Clone()
			if err := m.applyStrategyChange(learner, newStrat); err != nil {
				return err
			}
		}
	}
	// Mutation.
	if target, newStrat, ok := m.nat.MaybeMutation(m.cfg.NumSSets); ok {
		if err := m.applyStrategyChange(target, newStrat); err != nil {
			return err
		}
	}
	m.nat.EndGeneration()
	m.gen++
	return nil
}

// Sample computes an abundance sample for the current generation.
func (m *Model) Sample() AbundanceSample {
	counts := m.table.Counts()
	top, topFrac := m.tableMostAbundant(counts)
	s := AbundanceSample{
		Generation:   m.gen,
		Distinct:     len(counts),
		TopStrategy:  top,
		TopFraction:  topFrac,
		WSLSFraction: m.FractionOf(strategy.WSLS(m.cfg.MemorySteps)),
		TFTFraction:  m.FractionOf(strategy.TFT(m.cfg.MemorySteps)),
		AllDFraction: m.FractionOf(strategy.AllD(m.cfg.MemorySteps)),
	}
	totalStates := 0
	defecting := 0
	for i := 0; i < m.table.Len(); i++ {
		if p, ok := m.table.Get(i).(*strategy.Pure); ok {
			totalStates += p.NumStates()
			defecting += p.DefectionCount()
		}
	}
	if totalStates > 0 {
		s.MeanDefectingStates = float64(defecting) / float64(totalStates)
	}
	return s
}

func (m *Model) tableMostAbundant(counts map[string]int) (string, float64) {
	best, bestCount := "", -1
	for k, c := range counts {
		if c > bestCount || (c == bestCount && k < best) {
			best, bestCount = k, c
		}
	}
	return best, float64(bestCount) / float64(m.table.Len())
}

// Run advances the simulation by generations generations (or until ctx is
// cancelled) and returns the result.  Run may be called repeatedly; each
// call continues from the current state.  On error the Result still
// carries the samples recorded so far (with Generations at the reached
// value), so a supervisor can stitch the trajectory across a recovered
// failure; all other Result fields are left zero.
func (m *Model) Run(ctx context.Context, generations int) (Result, error) {
	if generations < 0 {
		return Result{}, fmt.Errorf("population: negative generation count %d", generations)
	}
	var samples []AbundanceSample
	partial := func() Result {
		return Result{Generations: m.gen, Samples: samples}
	}
	lastSaved := -1
	for g := 0; g < generations; g++ {
		select {
		case <-ctx.Done():
			return partial(), ctx.Err()
		default:
		}
		// The serial engine is the fault model's rank 0: a crash event
		// scheduled for (rank 0, generation m.gen) fires here, before the
		// generation runs, exactly like the distributed fault points.
		if err := m.cfg.Faults.Crash(0, m.gen); err != nil {
			return partial(), err
		}
		if err := m.Step(); err != nil {
			return partial(), err
		}
		if m.cfg.SampleEvery > 0 && m.gen%m.cfg.SampleEvery == 0 {
			samples = append(samples, m.Sample())
		}
		if m.cfg.CheckpointEvery > 0 && m.gen%m.cfg.CheckpointEvery == 0 {
			if err := checkpoint.Save(m.cfg.CheckpointPath, m.Snapshot()); err != nil {
				return partial(), fmt.Errorf("population: generation %d: %w", m.gen, err)
			}
			lastSaved = m.gen
		}
	}
	if len(samples) == 0 || samples[len(samples)-1].Generation != m.gen {
		samples = append(samples, m.Sample())
	}
	// Skip the final save when the last periodic write already captured this
	// generation — the snapshot would be byte-identical.
	if m.cfg.CheckpointPath != "" && lastSaved != m.gen {
		if err := checkpoint.Save(m.cfg.CheckpointPath, m.Snapshot()); err != nil {
			return partial(), err
		}
	}
	return Result{
		Generations:      m.gen,
		FinalStrategies:  m.Strategies(),
		Samples:          samples,
		NatureStats:      m.nat.Stats(),
		TotalGamesPlayed: m.GamesPlayed(),
		Metrics:          m.Metrics(),
	}, nil
}

// NatureStats exposes the Nature Agent's event counters for callers that
// drive the model step by step.
func (m *Model) NatureStats() nature.Stats { return m.nat.Stats() }

// Metrics returns the run's flat observability counters: pair-cache
// traffic, the kernel-mode mix (including batch-lane occupancy) and the
// Nature Agent's event counts.
func (m *Model) Metrics() fitness.Metrics {
	st := m.nat.Stats()
	met := fitness.Metrics{
		Generations: m.gen,
		PCEvents:    st.PCEvents,
		Adoptions:   st.Adoptions,
		Mutations:   st.Mutations,
	}
	met.AddEngine(m.engine.KernelStats())
	met.AddCache(m.eval.Cache())
	return met
}
