package population

import (
	"context"
	"math"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// runWithEvalMode runs the base scenario under one evaluation mode and
// returns the model for inspection.
func runWithEvalMode(t *testing.T, mutate func(*Config), mode fitness.EvalMode, generations int) (*Model, Result) {
	t.Helper()
	cfg := baseConfig()
	cfg.EvalMode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	m := mustModel(t, cfg)
	res, err := m.Run(context.Background(), generations)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func assertSameDynamics(t *testing.T, mode fitness.EvalMode, want, got Result) {
	t.Helper()
	if want.NatureStats != got.NatureStats {
		t.Fatalf("%v: nature stats differ: %+v vs %+v", mode, got.NatureStats, want.NatureStats)
	}
	for i := range want.FinalStrategies {
		if !want.FinalStrategies[i].Equal(got.FinalStrategies[i]) {
			t.Fatalf("%v: final table differs at SSet %d", mode, i)
		}
	}
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%v: sample counts differ", mode)
	}
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("%v: sample %d differs: %+v vs %+v", mode, i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestEvalModesIdenticalDynamics(t *testing.T) {
	mutate := func(c *Config) {
		c.NumSSets = 14
		c.MutationRate = 0.3
		c.SampleEvery = 20
		c.Seed = 19
	}
	_, want := runWithEvalMode(t, mutate, fitness.EvalFull, 150)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		_, got := runWithEvalMode(t, mutate, mode, 150)
		assertSameDynamics(t, mode, want, got)
	}
}

// exactFitness is the test-only all-pairs oracle: SSet i's payoff against
// each of its graph neighbors, one engine.Play per game, summed in neighbor
// order.  It shares no evaluation code with the engine beyond the kernel.
func exactFitness(t *testing.T, m *Model, i int) float64 {
	t.Helper()
	total := 0.0
	for _, j := range topology.Neighbors(m.graph, i) {
		res, err := m.engine.Play(m.table.Get(i), m.table.Get(j), nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.FitnessA
	}
	return total
}

// runAgainstOracle steps a noiseless, pure-strategy model through the given
// number of generations.  Before each step it peeks at the learning pair the
// Nature Agent is about to draw (restoring the agent's stream afterwards)
// and requires fitnessPair to equal the oracle bit for bit.  Fitness
// evaluation draws no randomness on such a model, so the extra evaluation
// leaves the trajectory unchanged.  It returns the number of learning
// events checked.
func runAgainstOracle(t *testing.T, m *Model, generations int) int {
	t.Helper()
	events := 0
	for g := 0; g < generations; g++ {
		st := m.nat.ExportState()
		teacher, learner, ok := m.nat.MaybeSelectPC(m.cfg.NumSSets)
		if err := m.nat.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if ok {
			ft, fl, err := m.fitnessPair(teacher, learner)
			if err != nil {
				t.Fatal(err)
			}
			wt, wl := exactFitness(t, m, teacher), exactFitness(t, m, learner)
			if math.Float64bits(ft) != math.Float64bits(wt) || math.Float64bits(fl) != math.Float64bits(wl) {
				t.Fatalf("generation %d: fitnessPair(%d, %d) = (%v, %v), oracle (%v, %v)",
					m.gen, teacher, learner, ft, fl, wt, wl)
			}
			events++
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return events
}

func TestEvalModesIdenticalAgainstExactAllPairs(t *testing.T) {
	// The cached modes must agree with the explicit all-pairs oracle at
	// every learning event, not just with the default per-event evaluation,
	// on the well-mixed population and on a sparse graph.
	ring, err := topology.Parse("ring:4")
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []topology.Spec{{}, ring} {
		mutate := func(c *Config) {
			c.NumSSets = 10
			c.MutationRate = 0.25
			c.Seed = 31
			c.Topology = topo
		}
		_, want := runWithEvalMode(t, mutate, fitness.EvalFull, 100)
		for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached, fitness.EvalIncremental} {
			cfg := baseConfig()
			cfg.EvalMode = mode
			mutate(&cfg)
			m := mustModel(t, cfg)
			if events := runAgainstOracle(t, m, 100); events == 0 {
				t.Fatalf("%v/%v: no learning events were checked", topo, mode)
			}
			if (m.eval == nil) != (mode == fitness.EvalFull) {
				t.Fatalf("%v/%v: evaluator built = %v", topo, mode, m.eval != nil)
			}
			got := m.Strategies()
			for i := range want.FinalStrategies {
				if !want.FinalStrategies[i].Equal(got[i]) {
					t.Fatalf("%v/%v: final table differs at SSet %d", topo, mode, i)
				}
			}
		}
	}
}

func TestEvalModesNoiseBypassIdentical(t *testing.T) {
	// With noise the pair cache is invalid; the cached modes must fall back
	// to the full path so that even the games-played count matches.
	mutate := func(c *Config) {
		c.Noise = 0.05
		c.MutationRate = 0.2
		c.Seed = 23
	}
	full, want := runWithEvalMode(t, mutate, fitness.EvalFull, 80)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		m, got := runWithEvalMode(t, mutate, mode, 80)
		assertSameDynamics(t, mode, want, got)
		if m.GamesPlayed() != full.GamesPlayed() {
			t.Fatalf("%v: bypass played %d games, full played %d", mode, m.GamesPlayed(), full.GamesPlayed())
		}
	}
}

func TestEvalModesMixedStrategyBypassIdentical(t *testing.T) {
	gtft, err := strategy.MixedFromProbs(1, []float64{1, 0.3, 1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(c *Config) {
		c.NumSSets = 6
		c.MutationRate = 0.2
		c.Seed = 29
		c.InitialStrategies = []strategy.Strategy{
			gtft, strategy.TFT(1), strategy.WSLS(1),
			strategy.AllD(1), strategy.AllC(1), strategy.GRIM(1),
		}
	}
	full, want := runWithEvalMode(t, mutate, fitness.EvalFull, 60)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		m, got := runWithEvalMode(t, mutate, mode, 60)
		assertSameDynamics(t, mode, want, got)
		if m.GamesPlayed() != full.GamesPlayed() {
			t.Fatalf("%v: bypass played %d games, full played %d", mode, m.GamesPlayed(), full.GamesPlayed())
		}
	}
}

func TestEvalModesReduceGamesPlayed(t *testing.T) {
	mutate := func(c *Config) {
		c.NumSSets = 48
		c.MutationRate = 0.1
		c.Seed = 41
	}
	full, _ := runWithEvalMode(t, mutate, fitness.EvalFull, 120)
	cached, _ := runWithEvalMode(t, mutate, fitness.EvalCached, 120)
	incr, _ := runWithEvalMode(t, mutate, fitness.EvalIncremental, 120)
	if full.GamesPlayed() == 0 || cached.GamesPlayed() == 0 || incr.GamesPlayed() == 0 {
		t.Fatal("expected games in every mode")
	}
	if cached.GamesPlayed() >= full.GamesPlayed() {
		t.Fatalf("cached mode played %d games, full mode %d", cached.GamesPlayed(), full.GamesPlayed())
	}
	if incr.GamesPlayed() > cached.GamesPlayed() {
		t.Fatalf("incremental mode played %d games, cached mode %d", incr.GamesPlayed(), cached.GamesPlayed())
	}
}

func TestEvalModeInvalidRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.EvalMode = fitness.EvalMode(9)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted an invalid eval mode")
	}
}
