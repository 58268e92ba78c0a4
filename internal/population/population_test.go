package population

import (
	"context"
	"testing"

	"evogame/internal/strategy"
)

func baseConfig() Config {
	return Config{
		NumSSets:      16,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,  // learn every generation so short tests converge
		MutationRate:  -1, // disabled unless a test overrides it
		Beta:          1,
		Seed:          42,
		Workers:       2,
	}
}

func mustModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.NumSSets = 1 },
		func(c *Config) { c.AgentsPerSSet = 0 },
		func(c *Config) { c.MemorySteps = 0 },
		func(c *Config) { c.MemorySteps = 7 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.SampleEvery = -1 },
		func(c *Config) { c.InitialStrategies = []strategy.Strategy{strategy.AllC(1)} },
		func(c *Config) { c.Noise = 2 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.PCRate = 3 },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config", i)
		}
	}
}

func TestInitialPopulation(t *testing.T) {
	cfg := baseConfig()
	m := mustModel(t, cfg)
	if m.PopulationSize() != 32 {
		t.Fatalf("population size = %d, want 32", m.PopulationSize())
	}
	strats := m.Strategies()
	if len(strats) != 16 {
		t.Fatalf("strategy table has %d entries", len(strats))
	}
	for i, s := range strats {
		if s == nil || s.MemorySteps() != 1 {
			t.Fatalf("initial strategy %d invalid", i)
		}
	}
	if m.Generation() != 0 {
		t.Fatal("new model should start at generation 0")
	}
}

func TestInitialStrategiesRespected(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 4
	cfg.InitialStrategies = []strategy.Strategy{
		strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1), strategy.TFT(1),
	}
	m := mustModel(t, cfg)
	got := m.Strategies()
	for i, want := range cfg.InitialStrategies {
		if !got[i].Equal(want) {
			t.Fatalf("initial strategy %d not respected", i)
		}
	}
}

func TestPopulationSizeConservedAcrossGenerations(t *testing.T) {
	cfg := baseConfig()
	cfg.MutationRate = 0.5
	m := mustModel(t, cfg)
	for g := 0; g < 200; g++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		if len(m.Strategies()) != cfg.NumSSets {
			t.Fatalf("generation %d: strategy table changed size", g)
		}
		if m.PopulationSize() != cfg.NumSSets*cfg.AgentsPerSSet {
			t.Fatalf("generation %d: population size changed", g)
		}
	}
	if m.Generation() != 200 {
		t.Fatalf("generation counter = %d", m.Generation())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		cfg := baseConfig()
		cfg.MutationRate = 0.2
		cfg.SampleEvery = 25
		m := mustModel(t, cfg)
		res, err := m.Run(context.Background(), 150)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.FinalStrategies) != len(b.FinalStrategies) {
		t.Fatal("runs differ in table size")
	}
	for i := range a.FinalStrategies {
		if !a.FinalStrategies[i].Equal(b.FinalStrategies[i]) {
			t.Fatalf("runs diverge at SSet %d", i)
		}
	}
	if a.NatureStats != b.NatureStats {
		t.Fatalf("nature stats differ: %+v vs %+v", a.NatureStats, b.NatureStats)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
}

func TestAllDDefeatsAllC(t *testing.T) {
	// A population of only ALLC and ALLD with selection and no mutation must
	// fixate on ALLD: defectors strictly dominate cooperators in a well-mixed
	// population without reciprocity.
	cfg := baseConfig()
	cfg.NumSSets = 12
	initial := make([]strategy.Strategy, cfg.NumSSets)
	for i := range initial {
		if i%2 == 0 {
			initial[i] = strategy.AllC(1)
		} else {
			initial[i] = strategy.AllD(1)
		}
	}
	cfg.InitialStrategies = initial
	m := mustModel(t, cfg)
	if _, err := m.Run(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	if frac := m.FractionOf(strategy.AllD(1)); frac != 1 {
		t.Fatalf("ALLD fraction after selection = %v, want fixation at 1", frac)
	}
}

func TestWSLSMajorityResistsAllD(t *testing.T) {
	// With a WSLS majority, the cooperative cluster out-earns the defectors,
	// so selection should not let ALLD take over (and typically eliminates
	// it).  This is the stability property behind the paper's Figure 2.
	cfg := baseConfig()
	cfg.NumSSets = 16
	cfg.Noise = 0.01
	initial := make([]strategy.Strategy, cfg.NumSSets)
	for i := range initial {
		if i < 12 {
			initial[i] = strategy.WSLS(1)
		} else {
			initial[i] = strategy.AllD(1)
		}
	}
	cfg.InitialStrategies = initial
	m := mustModel(t, cfg)
	if _, err := m.Run(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	if frac := m.FractionOf(strategy.WSLS(1)); frac < 0.75 {
		t.Fatalf("WSLS fraction dropped to %v; the cooperative majority should persist", frac)
	}
}

func TestMutationIntroducesNewStrategies(t *testing.T) {
	cfg := baseConfig()
	cfg.PCRate = -1 // selection off: only mutation acts
	cfg.MutationRate = 1
	initial := make([]strategy.Strategy, cfg.NumSSets)
	for i := range initial {
		initial[i] = strategy.AllC(1)
	}
	cfg.InitialStrategies = initial
	m := mustModel(t, cfg)
	if _, err := m.Run(context.Background(), 50); err != nil {
		t.Fatal(err)
	}
	sample := m.Sample()
	if sample.Distinct < 2 {
		t.Fatalf("after 50 forced mutations the population still has %d distinct strategies", sample.Distinct)
	}
	if m.NatureStats().Mutations != 50 {
		t.Fatalf("mutation count = %d, want 50", m.NatureStats().Mutations)
	}
}

func TestNoEventsWhenRatesDisabled(t *testing.T) {
	cfg := baseConfig()
	cfg.PCRate = -1
	cfg.MutationRate = -1
	m := mustModel(t, cfg)
	before := m.Strategies()
	if _, err := m.Run(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	after := m.Strategies()
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("strategy table changed with all dynamics disabled (SSet %d)", i)
		}
	}
	if m.GamesPlayed() != 0 {
		t.Fatalf("games were played with dynamics disabled: %d", m.GamesPlayed())
	}
}

func TestFitnessModesAgreeOnDynamics(t *testing.T) {
	// With no noise the default per-event evaluation must produce exactly
	// the fitness values of the exact all-pairs oracle at every learning
	// event, and checking them must not perturb the trajectory.
	cfg := baseConfig()
	cfg.NumSSets = 10
	cfg.MutationRate = 0.3
	cfg.Seed = 7
	observed := mustModel(t, cfg)
	if events := runAgainstOracle(t, observed, 120); events == 0 {
		t.Fatal("no learning events were checked")
	}
	plain := mustModel(t, cfg)
	if _, err := plain.Run(context.Background(), 120); err != nil {
		t.Fatal(err)
	}
	want, got := plain.Strategies(), observed.Strategies()
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("oracle-checked run diverges at SSet %d", i)
		}
	}
}

func TestCachedModePlaysFewerGames(t *testing.T) {
	// Exact all-pairs evaluation plays 2·(S−1) games per learning event;
	// the per-event distinct-pair cache must play fewer.
	cfg := baseConfig()
	cfg.NumSSets = 24
	cfg.Seed = 3
	m := mustModel(t, cfg)
	if _, err := m.Run(context.Background(), 40); err != nil {
		t.Fatal(err)
	}
	exact := int64(2 * (cfg.NumSSets - 1) * m.NatureStats().PCEvents)
	if m.GamesPlayed() == 0 || exact == 0 {
		t.Fatal("expected games to be played")
	}
	if m.GamesPlayed() >= exact {
		t.Fatalf("cached mode played %d games, exact all-pairs would play %d; caching should reduce work",
			m.GamesPlayed(), exact)
	}
}

func TestSampleContents(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 8
	cfg.InitialStrategies = []strategy.Strategy{
		strategy.WSLS(1), strategy.WSLS(1), strategy.WSLS(1), strategy.WSLS(1),
		strategy.WSLS(1), strategy.WSLS(1), strategy.AllD(1), strategy.TFT(1),
	}
	m := mustModel(t, cfg)
	s := m.Sample()
	if s.Distinct != 3 {
		t.Fatalf("distinct = %d, want 3", s.Distinct)
	}
	if s.TopStrategy != strategy.WSLS(1).String() || s.TopFraction != 0.75 {
		t.Fatalf("top strategy %q fraction %v", s.TopStrategy, s.TopFraction)
	}
	if s.WSLSFraction != 0.75 || s.AllDFraction != 0.125 || s.TFTFraction != 0.125 {
		t.Fatalf("fractions wrong: %+v", s)
	}
	// WSLS defects in 2/4 states, AllD in 4/4, TFT in 2/4:
	// (6*2 + 4 + 2) / (8*4) = 18/32.
	if s.MeanDefectingStates != 18.0/32.0 {
		t.Fatalf("MeanDefectingStates = %v, want %v", s.MeanDefectingStates, 18.0/32.0)
	}
}

func TestRunSampling(t *testing.T) {
	cfg := baseConfig()
	cfg.SampleEvery = 10
	cfg.MutationRate = 0.1
	m := mustModel(t, cfg)
	res, err := m.Run(context.Background(), 55)
	if err != nil {
		t.Fatal(err)
	}
	// Samples at generations 10..50 plus the final sample at 55.
	if len(res.Samples) != 6 {
		t.Fatalf("got %d samples, want 6", len(res.Samples))
	}
	if res.Samples[len(res.Samples)-1].Generation != 55 {
		t.Fatal("final sample not taken at the last generation")
	}
	if res.Generations != 55 {
		t.Fatalf("result generations = %d", res.Generations)
	}
}

func TestRunNegativeGenerations(t *testing.T) {
	m := mustModel(t, baseConfig())
	if _, err := m.Run(context.Background(), -1); err == nil {
		t.Fatal("Run accepted a negative generation count")
	}
}

func TestRunHonoursContextCancellation(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 64
	m := mustModel(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Run(ctx, 1000); err == nil {
		t.Fatal("Run ignored a cancelled context")
	}
}

func TestNoisyRunIsDeterministic(t *testing.T) {
	run := func() []strategy.Strategy {
		cfg := baseConfig()
		cfg.Noise = 0.05
		cfg.MutationRate = 0.2
		cfg.Seed = 11
		m := mustModel(t, cfg)
		if _, err := m.Run(context.Background(), 80); err != nil {
			t.Fatal(err)
		}
		return m.Strategies()
	}
	a, b := run(), run()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("noisy runs diverge at SSet %d", i)
		}
	}
}

func TestLearningOnlyCopiesExistingStrategies(t *testing.T) {
	// With mutation disabled, every strategy in the final table must have
	// been present initially (learning only copies, never invents).
	cfg := baseConfig()
	cfg.NumSSets = 10
	cfg.MutationRate = -1
	m := mustModel(t, cfg)
	initial := map[string]bool{}
	for _, s := range m.Strategies() {
		initial[s.String()] = true
	}
	if _, err := m.Run(context.Background(), 200); err != nil {
		t.Fatal(err)
	}
	for i, s := range m.Strategies() {
		if !initial[s.String()] {
			t.Fatalf("SSet %d holds strategy %q that never existed initially", i, s.String())
		}
	}
}

func BenchmarkStepCachedMemoryOne(b *testing.B) {
	cfg := baseConfig()
	cfg.NumSSets = 64
	cfg.Rounds = 200
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
