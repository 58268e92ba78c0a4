package ensemble

import (
	"context"
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/population"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// benchBase builds the benchmark workload: a small noiseless cached
// configuration with a fixed initial strategy table, so replicates overlap
// on the warm-up pairs and the shared/private gap is the cross-run sharing
// itself (the same shape as the frozen BENCH_7.json ensemble table, whose
// generator was removed, scaled down to benchmark size).
func benchBase(b *testing.B) population.Config {
	b.Helper()
	const ssets, memSteps = 32, 2
	src := rng.New(7)
	initial := make([]strategy.Strategy, ssets)
	for i := range initial {
		initial[i] = strategy.RandomPure(memSteps, src)
	}
	return population.Config{
		NumSSets:          ssets,
		AgentsPerSSet:     2,
		MemorySteps:       memSteps,
		Rounds:            game.DefaultRounds,
		PCRate:            1,
		MutationRate:      0.05,
		Beta:              1,
		Seed:              7,
		EvalMode:          fitness.EvalCached,
		InitialStrategies: initial,
	}
}

// BenchmarkEnsembleSharedCache measures a 4-replicate serial ensemble with
// the cross-run shared pair-cache store, at one and at four ensemble
// workers.
func BenchmarkEnsembleSharedCache(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			base := benchBase(b)
			for i := 0; i < b.N; i++ {
				if _, err := RunSerial(context.Background(), base, 24, Config{
					Replicates: 4, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsemblePrivateCaches is the same workload with per-replicate
// private caches — the baseline the shared store is measured against.
func BenchmarkEnsemblePrivateCaches(b *testing.B) {
	base := benchBase(b)
	for i := 0; i < b.N; i++ {
		if _, err := RunSerial(context.Background(), base, 24, Config{
			Replicates: 4, Workers: 1, PrivateCaches: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
