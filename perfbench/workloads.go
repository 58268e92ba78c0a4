package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	"evogame"
	"evogame/internal/ensemble"
	"evogame/internal/fitness"
	"evogame/internal/population"
)

// engineKind selects which facade entry point a workload drives.
type engineKind int

const (
	serialEngine engineKind = iota
	distributedEngine
	ensembleEngine
)

// shape is a workload's inputs: the population, the game and the engine
// budget.  The layer probes of the traced run derive their inputs from it,
// so every probe runs on the workload's own population shape.
type shape struct {
	ssets, agents, memory, rounds int
	noise, pcRate                 float64
	eval                          evogame.EvalMode
	// workers is the per-run game-play worker budget (0 = GOMAXPROCS).
	workers int
	// ranks is the distributed rank count including the Nature Agent; the
	// serial workloads use it only for their sset probe's block size.
	ranks int
	// replicates is the number of independent runs, at seeds
	// ensemble.ReplicateSeed(seed, k), that make up one timed run: one after
	// another on the serial engine, ensembleWorkers at a time in the
	// ensemble.  Averaging over replicates keeps a run's work from
	// depending on where one seed's dynamics happen to go.
	replicates, ensembleWorkers int
}

// workload is one named benchmark cell.  A timed run is a fixed number of
// generations, so its final state is a function of the seed alone and can
// be compared with a reference computed through an independent path.
type workload struct {
	name string
	kind engineKind
	in   shape
	// gens is the generation count of one timed run (per replicate for the
	// ensemble).
	gens int
	// pinned holds the reference hashes at defaultSeed and gens, one per
	// replicate: a change that moves the dynamics fails the benchmark.
	pinned []uint64
}

const defaultSeed = 2013

var workloads = []workload{
	{
		// Figure 2's WSLS-emergence cell: noise bypasses the pair cache and
		// the per-event batches run at low lane occupancy, so RNG draws and
		// per-generation overhead dominate.  ensembleWorkers only sets the
		// reference's concurrency here.
		name: "fig2_noisy_serial",
		kind: serialEngine,
		in: shape{ssets: 128, agents: 4, memory: 1, rounds: 200, noise: 0.05, pcRate: 1,
			eval: evogame.EvalFull, ranks: 3, replicates: 12, ensembleWorkers: 2},
		gens: 1000,
		pinned: []uint64{
			0x945e984f03f6d562, 0x8d08334d9be6307d, 0xddd727df02627e4a, 0x827f969dec57c15b,
			0xb47a37c50042156e, 0x0fffde453e78eae6, 0x5d8d31ab33c8d098, 0xc76f8fea6c80be39,
			0xe2c3c872b2773e39, 0xcd6e9ee009470479, 0xf1cc81ee893bd12e, 0x37aa2da36b0f51dc,
		},
	},
	{
		// Figure 6b's strong-scaling cell: the noiseless SWAR batch kernel
		// and the rank choreography do the work; the cache is bypassed.
		name: "fig6b_dist_full",
		kind: distributedEngine,
		in: shape{ssets: 128, agents: 4, memory: 1, rounds: 200, pcRate: 0.1,
			eval: evogame.EvalFull, workers: 1, ranks: 3, replicates: 1, ensembleWorkers: 1},
		gens:   100,
		pinned: []uint64{0x69e752867a9b7bbb},
	},
	{
		// The cached memory-6 ensemble: eight replicates with their own
		// random initial tables read and write one shared pair store from
		// two workers; misses go to the memory-6 cycle kernel.
		name: "ensemble_cached_mem6",
		kind: ensembleEngine,
		in: shape{ssets: 128, agents: 2, memory: 6, rounds: 200, pcRate: 1,
			eval: evogame.EvalCached, workers: 1, ranks: 3, replicates: 8, ensembleWorkers: 2},
		gens: 96,
		pinned: []uint64{0x0c43417e04e175af, 0xe72293ce66024e71, 0x98aabe30cddd9e35, 0x0f6ea6c12f72970b,
			0x00094ae734f108c8, 0x4b16a4d2498d61e8, 0x390536ce76db61e1, 0x241d23167f6a5c26},
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown --workload %q", name)
}

// serialConfig is the facade configuration of one serial run of shape in.
func (in shape) serialConfig(seed uint64, gens int) evogame.SimulationConfig {
	return evogame.SimulationConfig{
		NumSSets: in.ssets, AgentsPerSSet: in.agents, MemorySteps: in.memory, Rounds: in.rounds,
		Noise: in.noise, PCRate: in.pcRate, MutationRate: 0.05, Beta: 1,
		Generations: gens, Seed: seed, EvalMode: in.eval, Workers: in.workers,
	}
}

// parallelConfig is the facade configuration of one distributed run of
// shape in at optimization level 3.
func (in shape) parallelConfig(seed uint64, gens int) evogame.ParallelConfig {
	return evogame.ParallelConfig{
		Ranks: in.ranks, WorkersPerRank: in.workers, OptimizationLevel: 3,
		NumSSets: in.ssets, AgentsPerSSet: in.agents, MemorySteps: in.memory, Rounds: in.rounds,
		Noise: in.noise, PCRate: in.pcRate, MutationRate: 0.05, Beta: 1,
		Generations: gens, Seed: seed, EvalMode: in.eval,
	}
}

// populationConfig mirrors serialConfig on the internal serial engine, for
// the traced passes that step population.Model themselves.  The traced
// passes check their final hashes against the reference, which pins the
// mirror to the facade.
func (in shape) populationConfig(seed uint64) population.Config {
	return population.Config{
		NumSSets: in.ssets, AgentsPerSSet: in.agents, MemorySteps: in.memory, Rounds: in.rounds,
		Noise: in.noise, PCRate: in.pcRate, MutationRate: 0.05, Beta: 1,
		Seed: seed, EvalMode: fitness.EvalMode(in.eval), Workers: in.workers,
	}
}

// runOutcome is what one run of a workload produced.
type runOutcome struct {
	// hashes holds one final-state hash per replicate.
	hashes []uint64
	// metrics are the engine's counters, summed over replicates and ranks;
	// perReplicate keeps the ensemble's replicates apart.
	metrics      evogame.Metrics
	perReplicate []evogame.Metrics
	ranks        []evogame.RankSummary
	games        int64
	// table is the final strategy table of the first replicate.
	table []string
}

// run executes one run of w through the public facade.  With gens 0 it
// builds the engine and runs no generation, which is what setup_s times.
func (w workload) run(seed uint64, gens int) (runOutcome, error) {
	ctx := context.Background()
	switch w.kind {
	case serialEngine:
		var out runOutcome
		for k := 0; k < w.in.replicates; k++ {
			res, err := evogame.Simulate(ctx, w.in.serialConfig(ensemble.ReplicateSeed(seed, k), gens))
			if err != nil {
				return runOutcome{}, err
			}
			out.hashes = append(out.hashes, serialHash(res))
			out.metrics.Merge(res.Metrics)
			out.games += res.GamesPlayed
			if k == 0 {
				out.table = res.FinalStrategies
			}
		}
		return out, nil
	case distributedEngine:
		res, err := evogame.SimulateParallel(w.in.parallelConfig(seed, gens))
		if err != nil {
			return runOutcome{}, err
		}
		h := stateHash(res.FinalStrategies, res.PCEvents, res.Adoptions, res.Mutations)
		return runOutcome{hashes: []uint64{h}, metrics: res.Metrics, ranks: res.Ranks, games: res.TotalGames, table: res.FinalStrategies}, nil
	default:
		sim := w.in.serialConfig(seed, gens)
		res, err := evogame.RunEnsemble(ctx, evogame.EnsembleConfig{
			Replicates: w.in.replicates, EnsembleWorkers: w.in.ensembleWorkers, Simulation: &sim,
		})
		if err != nil {
			return runOutcome{}, err
		}
		out := runOutcome{metrics: res.Metrics}
		if len(res.Serial) > 0 {
			out.table = res.Serial[0].FinalStrategies
		}
		for _, r := range res.Serial {
			out.hashes = append(out.hashes, serialHash(r))
			out.perReplicate = append(out.perReplicate, r.Metrics)
			out.games += r.GamesPlayed
		}
		return out, nil
	}
}

// reference computes the hashes a run of w at seed must reproduce, through
// a path that shares no fast path with the timed run:
//   - each fig2 replicate is replayed with the round-by-round reference
//     kernel;
//   - fig6b is run on the serial engine;
//   - each ensemble replicate is run solo, with a private cache.
//
// Replicates run from at most workers goroutines.  soloTimes holds each
// replicate's wall time, a solo time only when workers is 1.
func (w workload) reference(seed uint64, gens, workers int) (hashes []uint64, soloTimes []time.Duration, err error) {
	ctx := context.Background()
	switch w.kind {
	case distributedEngine:
		cfg := w.in.serialConfig(seed, gens)
		cfg.EvalMode, cfg.Workers = evogame.EvalFull, 0
		res, err := evogame.Simulate(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		return []uint64{serialHash(res)}, nil, nil
	default:
		n := w.in.replicates
		hashes, soloTimes = make([]uint64, n), make([]time.Duration, n)
		errs := make([]error, n)
		forEach(n, workers, func(k int) {
			cfg := w.in.serialConfig(ensemble.ReplicateSeed(seed, k), gens)
			if w.kind == serialEngine {
				cfg.Kernel = "full-replay"
			}
			start := clock()
			res, err := evogame.Simulate(ctx, cfg)
			soloTimes[k] = time.Since(start)
			hashes[k], errs[k] = serialHash(res), err
		})
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		return hashes, soloTimes, nil
	}
}

// forEach calls fn(0..n-1) from at most workers goroutines and returns when
// every call has.
func forEach(n, workers int, fn func(k int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
}

func serialHash(r evogame.SimulationResult) uint64 {
	return stateHash(r.FinalStrategies, r.PCEvents, r.Adoptions, r.Mutations)
}

// stateHash is FNV-64a over the final strategy table and the event counts:
// the state every engine, kernel and cache path must agree on.  Game counts
// are left out because the fast paths legitimately play fewer games.
func stateHash(table []string, pcEvents, adoptions, mutations int) uint64 {
	h := fnv.New64a()
	for _, s := range table {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, n := range []int{len(table), pcEvents, adoptions, mutations} {
		h.Write([]byte(strconv.Itoa(n)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
