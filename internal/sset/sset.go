// Package sset implements Strategy Sets, the central abstraction of the
// paper (Section IV): a Strategy Set (SSet) is a group of agents that all
// play the same strategy.  The fitness of an SSet against the rest of the
// population is the sum of the payoffs its agents collect in Iterated
// Prisoner's Dilemma games against every other strategy in the population;
// the agents of an SSet partition those opponent games among themselves,
// which is the thread-level ("OpenMP") tier of the paper's two-level
// decomposition.  In this reproduction the thread tier is a pool of worker
// goroutines.
package sset

import (
	"fmt"
	"runtime"
	"sync"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// Agent identifies one agent within an SSet and the slice of opponent
// indices it is responsible for playing (the "determine opponents to play
// based on rank" step of the paper's pseudo code).
type Agent struct {
	// Index is the agent's position within its SSet.
	Index int
	// Lo and Hi bound the half-open range [Lo, Hi) of opponent indices this
	// agent plays.
	Lo, Hi int
}

// Games returns the number of games the agent is responsible for.
func (a Agent) Games() int { return a.Hi - a.Lo }

// PartitionOpponents splits numOpponents games across numAgents agents as
// evenly as possible (the first numOpponents mod numAgents agents receive
// one extra game).  It panics if numAgents <= 0 or numOpponents < 0.
func PartitionOpponents(numOpponents, numAgents int) []Agent {
	if numAgents <= 0 {
		panic(fmt.Sprintf("sset: numAgents must be positive, got %d", numAgents))
	}
	if numOpponents < 0 {
		panic(fmt.Sprintf("sset: numOpponents must be non-negative, got %d", numOpponents))
	}
	agents := make([]Agent, numAgents)
	base := numOpponents / numAgents
	extra := numOpponents % numAgents
	lo := 0
	for i := range agents {
		size := base
		if i < extra {
			size++
		}
		agents[i] = Agent{Index: i, Lo: lo, Hi: lo + size}
		lo += size
	}
	return agents
}

// SSet is a Strategy Set: an identifier, the strategy its agents share, and
// the number of agents in the set.
type SSet struct {
	id        int
	numAgents int
	strat     strategy.Strategy
}

// New returns an SSet with the given id, agent count and strategy.  It
// returns an error if numAgents is not positive or the strategy is nil.
func New(id, numAgents int, strat strategy.Strategy) (*SSet, error) {
	if numAgents <= 0 {
		return nil, fmt.Errorf("sset: numAgents must be positive, got %d", numAgents)
	}
	if strat == nil {
		return nil, fmt.Errorf("sset: nil strategy")
	}
	if id < 0 {
		return nil, fmt.Errorf("sset: id must be non-negative, got %d", id)
	}
	return &SSet{id: id, numAgents: numAgents, strat: strat}, nil
}

// ID returns the SSet's identifier within the population.
func (s *SSet) ID() int { return s.id }

// NumAgents returns the number of agents in the set.
func (s *SSet) NumAgents() int { return s.numAgents }

// Strategy returns the strategy currently shared by every agent in the set.
func (s *SSet) Strategy() strategy.Strategy { return s.strat }

// SetStrategy replaces the SSet's strategy; this is how the learning and
// mutation phases of the population dynamics take effect.
func (s *SSet) SetStrategy(strat strategy.Strategy) error {
	if strat == nil {
		return fmt.Errorf("sset: nil strategy")
	}
	s.strat = strat
	return nil
}

// Agents returns the opponent partition for this SSet against numOpponents
// opponent strategies.
func (s *SSet) Agents(numOpponents int) []Agent {
	return PartitionOpponents(numOpponents, s.numAgents)
}

// FitnessOptions controls how an SSet evaluates its fitness.
type FitnessOptions struct {
	// Workers is the number of worker goroutines used to fan out the games
	// (the thread-level tier).  Zero selects GOMAXPROCS — this is the single
	// point where that default resolves; the facade and the distributed
	// engine pass their worker knobs through unchanged.  Negative values are
	// rejected.
	Workers int
	// Source provides randomness for noisy or mixed games.  It may be nil
	// for fully deterministic games.  The source is split per opponent in a
	// fixed order, so results are independent of the worker count.
	Source *rng.Source
}

// sumRange plays the SSet's strategy against opponents[lo:hi) in index
// order through the engine's batch entry point (game.Engine.PlayBatch), one
// game.BatchLanes-sized block at a time, and returns the summed focal
// payoff.  When pay is non-nil it also stores each game's focal payoff at
// pay[i].  The result buffers live on the stack, so the steady state
// allocates nothing.
func (s *SSet) sumRange(eng *game.Engine, opponents []strategy.Strategy, perGame []*rng.Source, lo, hi int, pay []float64) (float64, error) {
	var (
		players [game.BatchLanes]game.Player
		srcs    [game.BatchLanes]*rng.Source
		results [game.BatchLanes]game.Result
	)
	total := 0.0
	for c0 := lo; c0 < hi; c0 += game.BatchLanes {
		c1 := min(c0+game.BatchLanes, hi)
		n := c1 - c0
		for k := 0; k < n; k++ {
			if opponents[c0+k] == nil {
				return 0, fmt.Errorf("sset: nil opponent strategy at index %d", c0+k)
			}
			players[k] = opponents[c0+k]
			if perGame != nil {
				srcs[k] = perGame[c0+k]
			}
		}
		var chunkSrcs []*rng.Source
		if perGame != nil {
			chunkSrcs = srcs[:n]
		}
		if err := eng.PlayBatch(s.strat, players[:n], chunkSrcs, results[:n]); err != nil {
			return 0, fmt.Errorf("sset %d vs opponents [%d,%d): %w", s.id, c0, c1, err)
		}
		for k := 0; k < n; k++ {
			total += results[k].FitnessA
			if pay != nil {
				pay[c0+k] = results[k].FitnessA
			}
		}
	}
	return total, nil
}

// Fitness plays the SSet's strategy against every opponent strategy and
// returns the summed focal payoff — the "relative fitness" the Nature Agent
// compares during pairwise learning.  Games are distributed across worker
// goroutines, but the per-opponent payoffs are always summed in opponent
// order, so the result is bit-identical for a given Source seed whatever
// Workers is (float64 addition is not associative, so summing per-worker
// partials would not be).
func (s *SSet) Fitness(eng *game.Engine, opponents []strategy.Strategy, opts FitnessOptions) (float64, error) {
	if eng == nil {
		return 0, fmt.Errorf("sset: nil engine")
	}
	if opts.Workers < 0 {
		return 0, fmt.Errorf("sset: Workers must be non-negative, got %d (0 selects GOMAXPROCS)", opts.Workers)
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(opponents) {
		workers = len(opponents)
	}
	if len(opponents) == 0 {
		return 0, nil
	}

	// Pre-derive one source per opponent so that the schedule (which worker
	// plays which game) cannot change the stream a game sees.
	needRandom := eng.Noise() > 0 || !s.strat.Deterministic()
	if !needRandom {
		for _, o := range opponents {
			if o == nil {
				return 0, fmt.Errorf("sset: nil opponent strategy")
			}
			if !o.Deterministic() {
				needRandom = true
				break
			}
		}
	}
	var perGame []*rng.Source
	if needRandom {
		if opts.Source == nil {
			return 0, fmt.Errorf("sset: randomness required (noise or mixed strategies) but no Source provided")
		}
		perGame = opts.Source.SplitN(len(opponents))
	}

	if workers == 1 {
		return s.sumRange(eng, opponents, perGame, 0, len(opponents), nil)
	}

	pay := make([]float64, len(opponents))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, agent := range PartitionOpponents(len(opponents), workers) {
		if agent.Games() == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, agent Agent) {
			defer wg.Done()
			_, errs[w] = s.sumRange(eng, opponents, perGame, agent.Lo, agent.Hi, pay)
		}(w, agent)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, p := range pay {
		total += p
	}
	return total, nil
}

// FitnessTable evaluates the fitness of every SSet in ssets against the full
// list of strategies (each SSet plays every entry of strategies, including
// its own strategy, exactly as in the paper where every SSet measures itself
// against all strategies held in the population).  It returns one fitness
// value per SSet.  Games for different SSets run sequentially; parallelism
// within an SSet is controlled by opts.Workers.
func FitnessTable(eng *game.Engine, ssets []*SSet, strategies []strategy.Strategy, opts FitnessOptions) ([]float64, error) {
	fitness := make([]float64, len(ssets))
	for i, s := range ssets {
		var localOpts FitnessOptions
		localOpts.Workers = opts.Workers
		if opts.Source != nil {
			localOpts.Source = opts.Source.Split()
		}
		f, err := s.Fitness(eng, strategies, localOpts)
		if err != nil {
			return nil, err
		}
		fitness[i] = f
	}
	return fitness, nil
}
