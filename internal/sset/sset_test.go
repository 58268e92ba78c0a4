package sset

import (
	"math"
	"testing"
	"testing/quick"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func newEngine(t *testing.T, mem int, noise float64) *game.Engine {
	t.Helper()
	e, err := game.NewEngine(game.EngineConfig{Rounds: 50, MemorySteps: mem, Noise: noise})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPartitionOpponentsEven(t *testing.T) {
	agents := PartitionOpponents(12, 4)
	if len(agents) != 4 {
		t.Fatalf("got %d agents", len(agents))
	}
	for i, a := range agents {
		if a.Index != i {
			t.Fatalf("agent %d has index %d", i, a.Index)
		}
		if a.Games() != 3 {
			t.Fatalf("agent %d has %d games, want 3", i, a.Games())
		}
	}
}

func TestPartitionOpponentsUneven(t *testing.T) {
	agents := PartitionOpponents(10, 4)
	sizes := []int{3, 3, 2, 2}
	total := 0
	prevHi := 0
	for i, a := range agents {
		if a.Games() != sizes[i] {
			t.Fatalf("agent %d has %d games, want %d", i, a.Games(), sizes[i])
		}
		if a.Lo != prevHi {
			t.Fatalf("agent %d range does not start where the previous ended", i)
		}
		prevHi = a.Hi
		total += a.Games()
	}
	if total != 10 {
		t.Fatalf("partition covers %d games, want 10", total)
	}
}

func TestPartitionOpponentsMoreAgentsThanGames(t *testing.T) {
	agents := PartitionOpponents(2, 5)
	total := 0
	for _, a := range agents {
		if a.Games() < 0 || a.Games() > 1 {
			t.Fatalf("agent %d has %d games", a.Index, a.Games())
		}
		total += a.Games()
	}
	if total != 2 {
		t.Fatalf("partition covers %d games, want 2", total)
	}
}

func TestPartitionOpponentsZeroGames(t *testing.T) {
	for _, a := range PartitionOpponents(0, 3) {
		if a.Games() != 0 {
			t.Fatal("zero opponents should give zero games per agent")
		}
	}
}

func TestPartitionOpponentsPanics(t *testing.T) {
	cases := []func(){
		func() { PartitionOpponents(5, 0) },
		func() { PartitionOpponents(5, -1) },
		func() { PartitionOpponents(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, strategy.AllC(1)); err == nil {
		t.Fatal("accepted zero agents")
	}
	if _, err := New(0, 4, nil); err == nil {
		t.Fatal("accepted nil strategy")
	}
	if _, err := New(-1, 4, strategy.AllC(1)); err == nil {
		t.Fatal("accepted negative id")
	}
	s, err := New(3, 4, strategy.WSLS(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 3 || s.NumAgents() != 4 {
		t.Fatal("accessors do not reflect construction")
	}
	if s.Strategy().String() != strategy.WSLS(1).String() {
		t.Fatal("strategy accessor wrong")
	}
}

func TestSetStrategy(t *testing.T) {
	s, _ := New(0, 2, strategy.AllC(1))
	if err := s.SetStrategy(nil); err == nil {
		t.Fatal("SetStrategy accepted nil")
	}
	if err := s.SetStrategy(strategy.AllD(1)); err != nil {
		t.Fatal(err)
	}
	if s.Strategy().String() != "1111" {
		t.Fatal("SetStrategy did not replace the strategy")
	}
}

func TestAgentsPartition(t *testing.T) {
	s, _ := New(0, 4, strategy.AllC(1))
	agents := s.Agents(9)
	if len(agents) != 4 {
		t.Fatalf("got %d agents", len(agents))
	}
	total := 0
	for _, a := range agents {
		total += a.Games()
	}
	if total != 9 {
		t.Fatalf("agents cover %d games, want 9", total)
	}
}

func TestFitnessDeterministicKnownValues(t *testing.T) {
	// AllD against [AllC, AllD]: 50 rounds.
	//   vs AllC: T every round = 200; vs AllD: P every round = 50.  Total 250.
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 3, strategy.AllD(1))
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1)}
	fit, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 250 {
		t.Fatalf("AllD fitness = %v, want 250", fit)
	}

	// AllC against the same opponents: R*50 + S*50 = 150.
	c, _ := New(1, 3, strategy.AllC(1))
	fit, err = c.Fitness(eng, opponents, FitnessOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 150 {
		t.Fatalf("AllC fitness = %v, want 150", fit)
	}
}

func TestFitnessEmptyOpponents(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	fit, err := s.Fitness(eng, nil, FitnessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 0 {
		t.Fatalf("fitness with no opponents = %v", fit)
	}
}

func TestFitnessNilEngine(t *testing.T) {
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(nil, []strategy.Strategy{strategy.AllC(1)}, FitnessOptions{}); err == nil {
		t.Fatal("accepted nil engine")
	}
}

func TestFitnessNilOpponent(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(eng, []strategy.Strategy{nil}, FitnessOptions{Workers: 1}); err == nil {
		t.Fatal("accepted nil opponent (serial path)")
	}
	opps := []strategy.Strategy{strategy.AllC(1), nil, strategy.AllC(1), strategy.AllC(1)}
	if _, err := s.Fitness(eng, opps, FitnessOptions{Workers: 2}); err == nil {
		t.Fatal("accepted nil opponent (parallel path)")
	}
}

func TestFitnessRequiresSourceWhenNoisy(t *testing.T) {
	eng := newEngine(t, 1, 0.1)
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(eng, []strategy.Strategy{strategy.AllC(1)}, FitnessOptions{}); err == nil {
		t.Fatal("noisy fitness accepted a nil source")
	}
}

func TestFitnessRequiresSourceWhenMixedOpponent(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	gtft, _ := strategy.GTFT(1, 0.3)
	if _, err := s.Fitness(eng, []strategy.Strategy{gtft}, FitnessOptions{}); err == nil {
		t.Fatal("fitness against a mixed opponent accepted a nil source")
	}
}

func TestFitnessWorkerCountDoesNotChangeResult(t *testing.T) {
	eng := newEngine(t, 1, 0)
	src := rng.New(7)
	// Build a varied opponent pool.
	var opponents []strategy.Strategy
	for i := 0; i < 37; i++ {
		opponents = append(opponents, strategy.RandomPure(1, src))
	}
	s, _ := New(0, 8, strategy.WSLS(1))
	want, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8, 64} {
		got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d fitness %v differs from serial %v", workers, got, want)
		}
	}
}

// TestFitnessBitsIndependentOfWorkers pins the determinism contract for
// payoffs that are not exact binary fractions: float64 addition is not
// associative, so the result is only worker-independent if the per-opponent
// payoffs are summed in opponent order whatever the partition.
func TestFitnessBitsIndependentOfWorkers(t *testing.T) {
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      50,
		MemorySteps: 2,
		Payoff:      game.Matrix{Reward: 3.1, Sucker: 0.3, Temptation: 5.7, Punishment: 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		opponents := make([]strategy.Strategy, 127)
		for i := range opponents {
			opponents[i] = strategy.RandomPure(2, src)
		}
		s, _ := New(0, 4, strategy.RandomPure(2, src))
		var want float64
		for _, workers := range []int{1, 2, 3, 4} {
			got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				want = got
			} else if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: workers=%d fitness %v (bits %#x), workers=1 %v (bits %#x)",
					trial, workers, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

func TestFitnessNoisyDeterministicAcrossWorkerCounts(t *testing.T) {
	eng := newEngine(t, 1, 0.05)
	var opponents []strategy.Strategy
	src := rng.New(3)
	for i := 0; i < 21; i++ {
		opponents = append(opponents, strategy.RandomPure(1, src))
	}
	s, _ := New(0, 4, strategy.WSLS(1))
	want, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1, Source: rng.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: workers, Source: rng.New(42)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("noisy fitness with workers=%d is %v, want %v (same seed)", workers, got, want)
		}
	}
}

func TestFitnessDefaultWorkers(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1)}
	if _, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestFitnessTable(t *testing.T) {
	eng := newEngine(t, 1, 0)
	strats := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1)}
	var ssets []*SSet
	for i, s := range strats {
		ss, err := New(i, 2, s)
		if err != nil {
			t.Fatal(err)
		}
		ssets = append(ssets, ss)
	}
	fitness, err := FitnessTable(eng, ssets, strats, FitnessOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fitness) != 3 {
		t.Fatalf("fitness table has %d entries", len(fitness))
	}
	// Against this pool, AllD exploits AllC and WSLS's first-round
	// cooperation while WSLS still sustains cooperation with itself and
	// AllC; AllC is exploited by AllD.  The defining qualitative check from
	// the paper's dynamics is that WSLS beats AllC in a mixed pool and AllD
	// earns more than AllC but cannot beat WSLS's cooperative cluster by a
	// large margin.
	allc, alld, wsls := fitness[0], fitness[1], fitness[2]
	if !(wsls > allc) {
		t.Fatalf("expected WSLS (%v) to out-earn AllC (%v) in this pool", wsls, allc)
	}
	if alld <= 0 || allc <= 0 || wsls <= 0 {
		t.Fatal("fitness values must be positive with the standard payoff matrix")
	}
}

func TestFitnessTablePropagatesErrors(t *testing.T) {
	eng := newEngine(t, 1, 0)
	ss, _ := New(0, 2, strategy.TFT(1))
	if _, err := FitnessTable(eng, []*SSet{ss}, []strategy.Strategy{nil}, FitnessOptions{Workers: 1}); err == nil {
		t.Fatal("FitnessTable swallowed an error")
	}
}

// Property: any partition covers every opponent exactly once, in order, with
// sizes differing by at most one.
func TestQuickPartitionCoversAll(t *testing.T) {
	f := func(oppSel, agentSel uint16) bool {
		numOpp := int(oppSel % 2000)
		numAgents := int(agentSel%200) + 1
		agents := PartitionOpponents(numOpp, numAgents)
		if len(agents) != numAgents {
			return false
		}
		prevHi := 0
		minSize, maxSize := 1<<30, 0
		for _, a := range agents {
			if a.Lo != prevHi || a.Games() < 0 {
				return false
			}
			prevHi = a.Hi
			if a.Games() < minSize {
				minSize = a.Games()
			}
			if a.Games() > maxSize {
				maxSize = a.Games()
			}
		}
		return prevHi == numOpp && maxSize-minSize <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitness64OpponentsMemorySix(b *testing.B) {
	eng, _ := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 6})
	src := rng.New(1)
	var opponents []strategy.Strategy
	for i := 0; i < 64; i++ {
		opponents = append(opponents, strategy.RandomPure(6, src))
	}
	s, _ := New(0, 4, strategy.RandomPure(6, src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
