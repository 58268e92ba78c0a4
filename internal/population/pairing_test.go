package population

import (
	"fmt"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// oracleFitnessCachedID is the reference for fitnessPairID: the per-event
// evaluation of one SSet at a time, transcribed from the engine before
// teacher and learner were batched together.  Pass 1 collects the pairs
// missing from the shared per-event cache and splits their sources; the
// misses are played; pass 2 replays the probe/fill order.
func oracleFitnessCachedID(m *Model, i int, cache map[uint64]float64) (float64, error) {
	my := m.table.Get(i)
	myID := m.table.ID(i)
	deg := m.graph.Degree(i)
	queued := make(map[uint64]int)
	var (
		missOpps []game.Player
		missSrcs []*rng.Source
		needSrcs bool
	)
	for k := 0; k < deg; k++ {
		j := m.graph.Neighbor(i, k)
		key := uint64(myID)<<32 | uint64(m.table.ID(j))
		if _, ok := cache[key]; ok {
			continue
		}
		if _, ok := queued[key]; ok {
			continue
		}
		opp := m.table.Get(j)
		var src *rng.Source
		if m.engine.Noise() > 0 || !my.Deterministic() || !opp.Deterministic() {
			src = m.src.Split()
			needSrcs = true
		}
		queued[key] = len(missOpps)
		missOpps = append(missOpps, opp)
		missSrcs = append(missSrcs, src)
	}
	results := make([]game.Result, len(missOpps))
	if len(missOpps) > 0 {
		var srcs []*rng.Source
		if needSrcs {
			srcs = missSrcs
		}
		if err := m.engine.PlayBatch(my, missOpps, srcs, results); err != nil {
			return 0, err
		}
		m.games += int64(len(missOpps))
	}
	total := 0.0
	for k := 0; k < deg; k++ {
		oppID := m.table.ID(m.graph.Neighbor(i, k))
		key := uint64(myID)<<32 | uint64(oppID)
		payoff, ok := cache[key]
		if !ok {
			res := results[queued[key]]
			payoff = res.FitnessA
			cache[key] = payoff
			cache[uint64(oppID)<<32|uint64(myID)] = res.FitnessB
		}
		total += payoff
	}
	return total, nil
}

// checkPairingMatchesOracle evaluates (t, l) through the oracle's two
// sequential passes and through fitnessPairID from the same model state,
// and requires the same fitness bits, games count and m.src post-state.
func checkPairingMatchesOracle(t *testing.T, m *Model, teacher, learner int) {
	t.Helper()
	state, games := m.src.State(), m.games

	cache := make(map[uint64]float64)
	wantT, err := oracleFitnessCachedID(m, teacher, cache)
	if err != nil {
		t.Fatal(err)
	}
	wantL, err := oracleFitnessCachedID(m, learner, cache)
	if err != nil {
		t.Fatal(err)
	}
	wantState, wantGames := m.src.State(), m.games-games

	if err := m.src.SetState(state); err != nil {
		t.Fatal(err)
	}
	m.games = games
	gotT, gotL, err := m.fitnessPairID(teacher, learner)
	if err != nil {
		t.Fatal(err)
	}
	if gotT != wantT || gotL != wantL {
		t.Fatalf("(%d,%d): paired fitness (%v, %v), sequential (%v, %v)", teacher, learner, gotT, gotL, wantT, wantL)
	}
	if got := m.games - games; got != wantGames {
		t.Fatalf("(%d,%d): paired played %d games, sequential %d", teacher, learner, got, wantGames)
	}
	if m.src.State() != wantState {
		t.Fatalf("(%d,%d): m.src state diverged after the event", teacher, learner)
	}
}

// TestFitnessPairMatchesSequentialOracle covers the pairing's hard cases on
// tables built from a small pool, so strategies repeat: teacher and learner
// holding one strategy, the learner's strategy among the teacher's
// opponents, noisy self-pairs, a ring:4 graph where the two SSets' opponent
// sets differ, and mixed strategies that force the scalar fallback lanes.
func TestFitnessPairMatchesSequentialOracle(t *testing.T) {
	gtft, err := strategy.MixedFromProbs(1, []float64{1, 0.3, 1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	pure := []strategy.Strategy{strategy.WSLS(1), strategy.TFT(1), strategy.AllD(1), strategy.AllC(1)}
	mixed := []strategy.Strategy{strategy.WSLS(1), gtft, strategy.AllD(1), strategy.TFT(1)}
	ring, err := topology.Parse("ring:4")
	if err != nil {
		t.Fatal(err)
	}
	for _, noise := range []float64{0, 0.05} {
		for _, topo := range []topology.Spec{{}, ring} {
			for pi, pool := range [][]strategy.Strategy{pure, mixed} {
				t.Run(fmt.Sprintf("noise%v-%v-pool%d", noise, topo, pi), func(t *testing.T) {
					cfg := baseConfig()
					cfg.NumSSets = 12
					cfg.Noise = noise
					cfg.Topology = topo
					cfg.InitialStrategies = make([]strategy.Strategy, cfg.NumSSets)
					for i := range cfg.InitialStrategies {
						// SSets 0 and 1 share a strategy; the rest cycle the
						// pool unevenly so every strategy repeats.
						cfg.InitialStrategies[i] = pool[(i/2+i/5)%len(pool)]
					}
					m := mustModel(t, cfg)
					if !m.table.Bound() {
						t.Fatal("table not interned; the ID path is not under test")
					}
					for teacher := 0; teacher < cfg.NumSSets; teacher++ {
						for learner := 0; learner < cfg.NumSSets; learner++ {
							if teacher != learner {
								checkPairingMatchesOracle(t, m, teacher, learner)
							}
						}
					}
				})
			}
		}
	}
}

// fig2Config is the Figure 2 WSLS-emergence cell: S=128, memory-1, 200
// rounds, noise 0.05, per-event evaluation.
func fig2Config() Config {
	return Config{
		NumSSets: 128, AgentsPerSSet: 4, MemorySteps: 1, Rounds: 200, Noise: 0.05,
		PCRate: 1, MutationRate: 0.05, Beta: 1, Seed: 2013,
	}
}

// TestFitnessPairSteadyStateZeroAllocs is the allocation gate of the
// per-event path: once the event scratch and the batch pool are warm,
// evaluating a learning event on the Figure 2 shape allocates nothing.
func TestFitnessPairSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	m := mustModel(t, fig2Config())
	for g := 0; g < 50; g++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.fitnessPair(3, 77); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := m.fitnessPair(3, 77); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state fitnessPair allocates %v times per event, want 0", allocs)
	}
}

func BenchmarkStepNoisyMemoryOne(b *testing.B) {
	m, err := New(fig2Config())
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
