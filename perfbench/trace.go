package main

import (
	"fmt"
	"os"
	"time"

	"evogame"
	"evogame/internal/ensemble"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/mpi"
	"evogame/internal/population"
	"evogame/internal/rng"
	"evogame/internal/sset"
	"evogame/internal/strategy"
)

// The traced run measures one workload layer by layer.  It makes one
// untraced pass through the facade (the timed runs' path, in process),
// which supplies the engines' counters.  It then steps serial models itself
// over the same work, twice bare and twice with a span around every
// Model.Step, and a probe per layer times the layer's public functions on
// the workload's own inputs.  Spans are recorded by this file around calls
// into the program; the program itself carries none.

// tracedRun makes the traced run of w and returns the per-layer metrics.
func tracedRun(w workload, seed uint64, ref []uint64, soloTimes []time.Duration) (result, error) {
	res := result{correct: true}
	check := func(what string, hashes []uint64) {
		res.attempted++
		if !equalHashes(hashes, ref) {
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: final state hashes %x, reference %x\n", w.name, what, hashes, ref)
			res.failed++
			res.correct = false
		}
	}
	gens := w.gens

	// Untraced pass: the timed runs' path and its counters.
	setup, err := medianSetup(w, seed, setupReps)
	if err != nil {
		return res, err
	}
	start := clock()
	plain, err := w.run(seed, gens)
	if err != nil {
		return res, err
	}
	plainWall := time.Since(start)
	check("untraced pass", plain.hashes)
	totalGens := float64(gens * len(plain.hashes))
	plainRate := totalGens / (plainWall.Seconds() - setup)

	// Stepped passes: the same models stepped bare and with spans, in the
	// order bare, spans, spans, bare so that drift over the four passes
	// cancels.  The ratio of their summed wall times is the tracing
	// overhead; the layer figures come from the first pass with spans.
	var steps stepped
	var wall [2]time.Duration
	for i, spans := range []bool{false, true, true, false} {
		cfgs, workers, err := w.stepConfigs(seed)
		if err != nil {
			return res, err
		}
		st, err := stepModels(cfgs, gens, workers, spans)
		if err != nil {
			return res, err
		}
		check(fmt.Sprintf("stepped pass %d", i+1), st.hashes)
		if i == 1 {
			steps = st
		}
		if spans {
			wall[1] += st.wall
		} else {
			wall[0] += st.wall
		}
	}

	// Layer probes.
	m := plain.metrics
	table, err := parseTable(w.in.memory, plain.table)
	if err != nil {
		return res, err
	}
	boolNs, err := rngBoolNs(w.in.noise, seed)
	if err != nil {
		return res, err
	}
	own, err := headToHead(w.in, table, seed)
	if err != nil {
		return res, err
	}
	var grid [3]kernelTimes
	for mem := 1; mem <= 3; mem++ {
		src := rng.New(seed)
		random := make([]strategy.Strategy, w.in.ssets)
		for i := range random {
			random[i] = strategy.RandomPure(mem, src)
		}
		in := w.in
		in.memory = mem
		if grid[mem-1], err = headToHead(in, random, seed); err != nil {
			return res, err
		}
	}
	hitNs, missNs, err := cacheNs(w.in, table)
	if err != nil {
		return res, err
	}
	blockMs, err := ssetBlockMs(w.in, table, seed)
	if err != nil {
		return res, err
	}
	// The parallel, mpi and ensemble layers read 0 on the workloads whose
	// engine does not use them.
	var par rankSummary
	var bcastUs, barrierUs float64
	if w.kind == distributedEngine {
		par = summarizeRanks(plain.ranks, gens)
		payload := int(ratio(par.bytesPerGen, par.msgsPerGen) + 0.5)
		if bcastUs, barrierUs, err = collectiveUs(w.in.ranks, payload); err != nil {
			return res, err
		}
	}
	var ens ensembleSummary
	if w.kind == ensembleEngine {
		ens = summarizeEnsemble(plain.perReplicate, soloTimes, w.in.ensembleWorkers, plainWall)
	}

	perGen := func(n int64) float64 { return float64(n) / totalGens }
	gameNs := 1e9 / plainRate
	draws := 0.0
	if w.in.noise > 0 {
		draws = 2 * float64(w.in.rounds) * float64(plain.games) / totalGens
	}
	res.metrics = []metric{
		{"rng.bool_ns", "ns", boolNs},
		{"rng.draws_per_gen_computed", "count", draws},
		{"rng.share", "ratio", draws * boolNs / gameNs},
		{"game.scalar_games_per_gen", "count", perGen(m.ScalarGames)},
		{"game.cycle_games_per_gen", "count", perGen(m.CycleGames)},
		{"game.batch_games_per_gen", "count", perGen(m.BatchGames)},
		{"game.lane_occupancy", "ratio", m.BatchLaneOccupancy()},
		{"game.batch_ns_per_game", "ns", own.batch},
		{"game.cycle_ns_per_game", "ns", own.cycle},
		{"game.replay_ns_per_game", "ns", own.replay},
	}
	for i, k := range grid {
		mem := fmt.Sprintf("game.m%d_", i+1)
		res.metrics = append(res.metrics,
			metric{mem + "scalar_ns_per_game", "ns", k.replay},
			metric{mem + "cycle_ns_per_game", "ns", k.cycle},
			metric{mem + "batch_ns_per_game", "ns", k.batch})
	}
	res.metrics = append(res.metrics, []metric{
		{"fitness.hit_ratio", "ratio", ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses))},
		{"fitness.hits", "count", float64(m.CacheHits)},
		{"fitness.misses", "count", float64(m.CacheMisses)},
		{"fitness.misses_per_gen", "count", perGen(m.CacheMisses)},
		{"fitness.bypassed_per_gen", "count", perGen(m.CacheBypassed)},
		{"fitness.evicted", "count", float64(m.CacheEvicted)},
		{"fitness.hit_ns", "ns", hitNs},
		{"fitness.miss_ns", "ns", missNs},
		{"fitness.store_entries", "count", float64(steps.storeEntries)},
		{"sset.block_ms", "ms", blockMs},
		{"population.step_p50_us", "us", quantile(steps.stepUs, 0.5)},
		{"population.step_p99_us", "us", quantile(steps.stepUs, 0.99)},
		{"population.step_samples", "count", float64(len(steps.stepUs))},
		{"population.games_per_gen", "count", ratio(float64(steps.games), float64(len(steps.stepUs)))},
		{"population.changed_gens_frac", "ratio", ratio(float64(steps.changed), float64(len(steps.stepUs)))},
		{"parallel.compute_s", "s", par.compute},
		{"parallel.comm_s", "s", par.comm},
		{"parallel.comm_share", "ratio", ratio(par.comm, par.compute+par.comm)},
		{"parallel.imbalance", "ratio", ratio(par.maxCompute, par.compute)},
		{"mpi.msgs_per_gen", "count", par.msgsPerGen},
		{"mpi.bytes_per_gen", "count", par.bytesPerGen},
		{"mpi.bcast_us", "us", bcastUs},
		{"mpi.barrier_us", "us", barrierUs},
		{"ensemble.warm_hit_ratio", "ratio", ens.warmHitRatio},
		{"ensemble.efficiency", "ratio", ens.efficiency},
		{"trace.overhead", "ratio", ratio(wall[0].Seconds(), wall[1].Seconds())},
	}...)
	return res, nil
}

// stepConfigs are the serial models the stepped passes of w build, to be
// stepped from at most workers goroutines:
//   - fig2's replicates, one after another, as the timed runs make them;
//   - fig6b's serial reference engine, since the distributed engine cannot
//     be stepped from outside;
//   - the ensemble's replicates, two at a time, sharing one fresh pair
//     store built as ensemble.RunSerial builds it.  This stand-in for
//     RunEnsemble is tied to it by the reference hashes.
func (w workload) stepConfigs(seed uint64) (cfgs []population.Config, workers int, err error) {
	if w.kind == distributedEngine {
		cfg := w.in.populationConfig(seed)
		cfg.EvalMode, cfg.Workers = fitness.EvalFull, 0
		return []population.Config{cfg}, 1, nil
	}
	cfgs = make([]population.Config, w.in.replicates)
	for k := range cfgs {
		cfgs[k] = w.in.populationConfig(ensemble.ReplicateSeed(seed, k))
	}
	if w.kind == serialEngine {
		return cfgs, 1, nil
	}
	base := cfgs[0]
	eng, err := game.NewEngine(game.EngineConfig{
		Game: base.Game, Rounds: base.Rounds, MemorySteps: base.MemorySteps, Noise: base.Noise,
		StateMode: base.StateMode, AccumMode: base.AccumMode, Kernel: base.Kernel,
	})
	if err != nil {
		return nil, 0, err
	}
	shared, err := fitness.NewPairCache(eng)
	if err != nil {
		return nil, 0, err
	}
	for k := range cfgs {
		cfgs[k].SharedCache = shared
	}
	return cfgs, w.in.ensembleWorkers, nil
}

// stepped is the outcome of stepping serial models.
type stepped struct {
	hashes []uint64
	// stepUs holds every Step span in microseconds, and changed counts the
	// generations in which learning or mutation changed the strategy table,
	// from the Nature Agent's counters; both stay empty without spans.
	stepUs  []float64
	changed int
	games   int64
	// storeEntries is the size of the models' shared pair store, 0 when
	// they share none.
	storeEntries int
	// wall is the time spent stepping, set-up excluded.
	wall time.Duration
}

// stepModels builds one model per configuration, then steps them all for
// gens generations from at most workers goroutines, with a span around
// every Step when spans is set.
func stepModels(cfgs []population.Config, gens, workers int, spans bool) (stepped, error) {
	n := len(cfgs)
	models := make([]*population.Model, n)
	for k, cfg := range cfgs {
		m, err := population.New(cfg)
		if err != nil {
			return stepped{}, err
		}
		models[k] = m
	}
	stepUs := make([][]float64, n)
	changed := make([]int, n)
	errs := make([]error, n)
	start := clock()
	forEach(n, workers, func(k int) {
		m := models[k]
		if !spans {
			for g := 0; g < gens && errs[k] == nil; g++ {
				errs[k] = m.Step()
			}
			return
		}
		stepUs[k] = make([]float64, 0, gens)
		for g := 0; g < gens; g++ {
			before := m.NatureStats()
			t := clock()
			if err := m.Step(); err != nil {
				errs[k] = err
				return
			}
			stepUs[k] = append(stepUs[k], float64(time.Since(t).Nanoseconds())/1e3)
			after := m.NatureStats()
			if after.Adoptions+after.Mutations > before.Adoptions+before.Mutations {
				changed[k]++
			}
		}
	})
	out := stepped{wall: time.Since(start)}
	if shared := cfgs[0].SharedCache; shared != nil {
		out.storeEntries = shared.Len()
	}
	for k, m := range models {
		if errs[k] != nil {
			return stepped{}, errs[k]
		}
		table := make([]string, 0, m.Config().NumSSets)
		for _, s := range m.Strategies() {
			table = append(table, s.String())
		}
		st := m.NatureStats()
		out.hashes = append(out.hashes, stateHash(table, st.PCEvents, st.Adoptions, st.Mutations))
		out.stepUs = append(out.stepUs, stepUs[k]...)
		out.changed += changed[k]
		out.games += m.GamesPlayed()
	}
	return out, nil
}

func parseTable(memory int, moves []string) ([]strategy.Strategy, error) {
	out := make([]strategy.Strategy, len(moves))
	for i, s := range moves {
		p, err := strategy.ParsePure(memory, s)
		if err != nil {
			return nil, fmt.Errorf("final table entry %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// probeReps is how often each probe repeats its measurement; probes report
// the median.
const probeReps = 5

// rngBoolNs times Source.Bool at the workload's noise probability.
func rngBoolNs(p float64, seed uint64) (float64, error) {
	const calls = 1 << 20
	src := rng.New(seed)
	var xs []float64
	trues := 0
	for r := 0; r < probeReps; r++ {
		start := clock()
		for i := 0; i < calls; i++ {
			if src.Bool(p) {
				trues++
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/calls)
	}
	if p > 0 && trues == 0 {
		return 0, fmt.Errorf("rng probe: no true draw in %d calls at p=%v", probeReps*calls, p)
	}
	return median(xs), nil
}

// kernelTimes is a head-to-head of the game kernels, in ns per game.
type kernelTimes struct{ batch, cycle, replay float64 }

// h2hRows is the number of focal strategies the kernel head-to-head plays
// against the whole table: enough games to time, few enough that the
// memory-6 round-by-round reference stays within seconds.
const h2hRows = 8

// headToHead times the games of the first h2hRows strategies of table
// against the whole table through the SWAR batch kernel (PlayBatch under
// KernelBatch), the cycle-closing kernel (Play under KernelAuto; noisy
// games replay there) and the round-by-round reference (Play under
// KernelFullReplay), at the workload's noise and round count.
func headToHead(in shape, table []strategy.Strategy, seed uint64) (kernelTimes, error) {
	engines := make(map[game.KernelMode]*game.Engine)
	for _, k := range []game.KernelMode{game.KernelAuto, game.KernelFullReplay, game.KernelBatch} {
		eng, err := game.NewEngine(game.EngineConfig{Rounds: in.rounds, MemorySteps: in.memory, Noise: in.noise, Kernel: k})
		if err != nil {
			return kernelTimes{}, err
		}
		engines[k] = eng
	}
	players := make([]game.Player, len(table))
	for i, s := range table {
		players[i] = s
	}
	n := len(table)
	focal := players[:h2hRows]
	games := float64(len(focal) * n)
	// Every pass draws from sources split off one seeded root in the same
	// order, so the three kernels play identical games.
	sources := func() []*rng.Source {
		if in.noise == 0 {
			return nil
		}
		return rng.New(seed).SplitN(len(focal) * n)
	}
	results := make([]game.Result, n)
	batch := func() error {
		srcs := sources()
		for i, a := range focal {
			var s []*rng.Source
			if srcs != nil {
				s = srcs[i*n : (i+1)*n]
			}
			if err := engines[game.KernelBatch].PlayBatch(a, players, s, results); err != nil {
				return err
			}
		}
		return nil
	}
	single := func(eng *game.Engine) func() error {
		return func() error {
			srcs := sources()
			for i, a := range focal {
				for j, b := range players {
					var s *rng.Source
					if srcs != nil {
						s = srcs[i*n+j]
					}
					if _, err := eng.Play(a, b, s); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	batchNs, err := medianNs(batch)
	if err != nil {
		return kernelTimes{}, err
	}
	cycleNs, err := medianNs(single(engines[game.KernelAuto]))
	if err != nil {
		return kernelTimes{}, err
	}
	replayNs, err := medianNs(single(engines[game.KernelFullReplay]))
	if err != nil {
		return kernelTimes{}, err
	}
	return kernelTimes{batch: batchNs / games, cycle: cycleNs / games, replay: replayNs / games}, nil
}

// medianNs is the median wall time of probeReps calls of pass, in ns.
func medianNs(pass func() error) (float64, error) {
	var xs []float64
	for r := 0; r < probeReps; r++ {
		start := clock()
		if err := pass(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds()))
	}
	return median(xs), nil
}

// cacheNs times PairCache.PlayIDBatch over every ordered pair of table, on
// a fresh store (ns per game played) and again on the filled store (ns per
// lookup).  The store only serves noiseless games, so a noisy workload's
// table is timed on the noiseless game of the same shape.
func cacheNs(in shape, table []strategy.Strategy) (hitNs, missNs float64, err error) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: in.rounds, MemorySteps: in.memory})
	if err != nil {
		return 0, 0, err
	}
	var cache *fitness.PairCache
	var ids []uint32
	fresh := func() error {
		if cache, err = fitness.NewPairCache(eng); err != nil {
			return err
		}
		ids = ids[:0]
		for _, s := range table {
			id, err := cache.Interner().Intern(s)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	}
	out := make([]game.Result, len(table))
	pass := func() error {
		for _, a := range ids {
			if err := cache.PlayIDBatch(a, ids, out); err != nil {
				return err
			}
		}
		return nil
	}
	var missXs []float64
	for r := 0; r < probeReps; r++ {
		if err := fresh(); err != nil {
			return 0, 0, err
		}
		start := clock()
		if err := pass(); err != nil {
			return 0, 0, err
		}
		missXs = append(missXs, float64(time.Since(start).Nanoseconds())/float64(cache.Misses()))
	}
	hit, err := medianNs(pass)
	if err != nil {
		return 0, 0, err
	}
	return hit / float64(len(ids)*len(ids)), median(missXs), nil
}

// ssetBlockMs times sset.FitnessTable over the block of SSets the first
// SSet rank owns at the workload's rank count, against the whole table.
func ssetBlockMs(in shape, table []strategy.Strategy, seed uint64) (float64, error) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: in.rounds, MemorySteps: in.memory, Noise: in.noise})
	if err != nil {
		return 0, err
	}
	per := (len(table) + in.ranks - 2) / (in.ranks - 1)
	block := make([]*sset.SSet, per)
	for i := range block {
		if block[i], err = sset.New(i, in.agents, table[i]); err != nil {
			return 0, err
		}
	}
	ns, err := medianNs(func() error {
		opts := sset.FitnessOptions{Workers: 1}
		if in.noise > 0 {
			opts.Source = rng.New(seed)
		}
		_, err := sset.FitnessTable(eng, block, table, opts)
		return err
	})
	return ns / 1e6, err
}

// rankSummary condenses the distributed engine's per-rank reports.
type rankSummary struct {
	// compute and comm are means over the SSet ranks; maxCompute is the
	// slowest SSet rank's compute time.
	compute, comm, maxCompute float64
	msgsPerGen, bytesPerGen   float64
}

func summarizeRanks(ranks []evogame.RankSummary, gens int) rankSummary {
	var s rankSummary
	n := 0
	var msgs, bytes int64
	for _, r := range ranks {
		msgs += r.MessagesSent
		bytes += r.BytesSent
		if r.Rank == 0 {
			continue
		}
		n++
		s.compute += r.ComputeSeconds
		s.comm += r.CommSeconds
		if r.ComputeSeconds > s.maxCompute {
			s.maxCompute = r.ComputeSeconds
		}
	}
	if n > 0 {
		s.compute /= float64(n)
		s.comm /= float64(n)
	}
	s.msgsPerGen = ratio(float64(msgs), float64(gens))
	s.bytesPerGen = ratio(float64(bytes), float64(gens))
	return s
}

// collectiveUs times Comm.Bcast of a payload-byte message and Comm.Barrier
// across ranks ranks, in microseconds per call as rank 0 sees it.
func collectiveUs(ranks, payload int) (bcastUs, barrierUs float64, err error) {
	const calls = 2000
	data := make([]byte, payload)
	timeOp := func(op func(c *mpi.Comm) error) (float64, error) {
		var xs []float64
		for r := 0; r < probeReps; r++ {
			var us float64
			err := mpi.Run(ranks, func(c *mpi.Comm) error {
				start := clock()
				for i := 0; i < calls; i++ {
					if err := op(c); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					us = float64(time.Since(start).Nanoseconds()) / 1e3 / calls
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
			xs = append(xs, us)
		}
		return median(xs), nil
	}
	if bcastUs, err = timeOp(func(c *mpi.Comm) error {
		var in []byte
		if c.Rank() == 0 {
			in = data
		}
		_, err := c.Bcast(0, in)
		return err
	}); err != nil {
		return 0, 0, err
	}
	barrierUs, err = timeOp(func(c *mpi.Comm) error { return c.Barrier() })
	return bcastUs, barrierUs, err
}

// ensembleSummary holds the ensemble layer's metrics.
type ensembleSummary struct {
	// warmHitRatio is the pair-cache hit ratio of replicates 1..N-1, which
	// find the store warmed by the replicates before them.
	warmHitRatio float64
	// efficiency is the summed solo replicate time over workers times the
	// ensemble's wall time.
	efficiency float64
}

func summarizeEnsemble(perReplicate []evogame.Metrics, solo []time.Duration, workers int, wall time.Duration) ensembleSummary {
	var hits, misses int64
	for _, m := range perReplicate[1:] {
		hits += m.CacheHits
		misses += m.CacheMisses
	}
	var sum time.Duration
	for _, d := range solo {
		sum += d
	}
	return ensembleSummary{
		warmHitRatio: ratio(float64(hits), float64(hits+misses)),
		efficiency:   sum.Seconds() / (float64(workers) * wall.Seconds()),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
