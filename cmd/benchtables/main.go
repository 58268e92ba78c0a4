// Command benchtables prints the paper's evaluation tables and the figures
// no other front-end regenerates (Randles et al., IPDPS 2013): the
// strategy-space tables (Tables I-V), the SSet-per-processor ratio table
// (Table VI), the memory-capacity check, the scenario and topology
// registries, strong scaling versus population size (Figure 4), the
// memory-step runtime breakdown (Figure 5), and the weak/strong scaling
// studies (Figure 6a/6b).
//
// Experiments that the paper ran on hundreds of thousands of Blue Gene
// cores are reproduced at two levels: a real run of the distributed engine
// on goroutine ranks (small scale), and the analytic performance model
// extrapolated to the paper's processor counts.
//
// The other figures have their own homes: the Figure 2 WSLS study is
// examples/wsls_emergence and the paperkit artifact wsls_emergence, the
// Figure 3 optimization-level ablation is the paperkit artifact
// figure3_ablation (equivalence) and BenchmarkFig3OptimizationLevels
// (timing), and performance is measured by the perfbench module.
//
// Usage:
//
//	benchtables -all            # every table and figure (quick settings)
//	benchtables -table 4        # a single table (1-6, capacity, scenarios, topology)
//	benchtables -fig 6a         # a single figure (4, 5, 6a, 6b)
//	benchtables -full           # larger real runs (slower, closer to paper)
//	benchtables -calibrate      # measure the game kernel before modelling
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"evogame"

	"evogame/internal/game"
	"evogame/internal/stats"
	"evogame/internal/strategy"
)

type options struct {
	table     string
	fig       string
	all       bool
	full      bool
	calibrate bool
	seed      uint64
}

func main() {
	var opts options
	flag.StringVar(&opts.table, "table", "", "regenerate one table: 1, 2, 3, 4, 5, 6, capacity, scenarios, topology")
	flag.StringVar(&opts.fig, "fig", "", "regenerate one figure: 4, 5, 6a, 6b")
	flag.BoolVar(&opts.all, "all", false, "regenerate every table and figure")
	flag.BoolVar(&opts.full, "full", false, "use larger real runs (slower)")
	flag.BoolVar(&opts.calibrate, "calibrate", false, "measure the game kernel cost before running the performance model")
	seed := flag.Uint64("seed", 2013, "experiment seed")
	flag.Parse()
	opts.seed = *seed

	if !opts.all && opts.table == "" && opts.fig == "" {
		opts.all = true
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(opts options) error {
	scaling := evogame.ScalingOptions{CalibrateKernel: opts.calibrate}
	type job struct {
		name string
		fn   func() error
	}
	jobs := []job{
		{"table 1", table1},
		{"table 2", table2},
		{"table 3", table3},
		{"table 4", table4},
		{"table 5", table5},
		{"table 6", func() error { return table6(scaling) }},
		{"table capacity", tableCapacity},
		{"table scenarios", func() error { return tableScenarios(opts) }},
		{"table topology", func() error { return tableTopology(opts) }},
		{"fig 4", func() error { return figure4(opts, scaling) }},
		{"fig 5", func() error { return figure5(opts, scaling) }},
		{"fig 6a", func() error { return figure6a(opts, scaling) }},
		{"fig 6b", func() error { return figure6b(opts, scaling) }},
	}
	selected := func(name string) bool {
		if opts.all {
			return true
		}
		if opts.table != "" && name == "table "+opts.table {
			return true
		}
		if opts.fig != "" && name == "fig "+strings.ToLower(opts.fig) {
			return true
		}
		return false
	}
	ran := 0
	for _, j := range jobs {
		if !selected(j.name) {
			continue
		}
		if err := j.fn(); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("nothing selected (table=%q fig=%q)", opts.table, opts.fig)
	}
	return nil
}

func header(title string) {
	fmt.Println()
	fmt.Println("=== " + title + " ===")
}

// table1 prints the Prisoner's Dilemma payoff matrix (Table I).
func table1() error {
	header("Table I — Prisoner's Dilemma payoff matrix f[R,S,T,P] = [3,0,4,1]")
	m := game.Standard()
	t := stats.NewTable("", "Opponent C", "Opponent D")
	t.AddRow("Agent C", fmt.Sprintf("R=%.0f", m.Reward), fmt.Sprintf("S=%.0f", m.Sucker))
	t.AddRow("Agent D", fmt.Sprintf("T=%.0f", m.Temptation), fmt.Sprintf("P=%.0f", m.Punishment))
	fmt.Print(t.String())
	return m.Validate()
}

// table2 prints the memory-one game states (Table II).
func table2() error {
	header("Table II — potential game states for a memory-one strategy")
	t := stats.NewTable("State", "Agent", "Opponent")
	for s := 0; s < game.NumStates(1); s++ {
		t.AddRow(s+1, game.Move((s>>1)&1).String(), game.Move(s&1).String())
	}
	fmt.Print(t.String())
	return nil
}

// table3 prints all sixteen pure memory-one strategies (Table III).
func table3() error {
	header("Table III — all potential memory-one strategies")
	t := stats.NewTable("Strategy", "State CC", "State CD", "State DC", "State DD", "Name")
	names := map[string]string{"0000": "ALLC", "1111": "ALLD", "0101": "TFT/GRIM", "0110": "WSLS", "1100": "Alternator"}
	for i, p := range strategy.AllMemoryOne() {
		row := []interface{}{i + 1}
		for s := 0; s < 4; s++ {
			row = append(row, p.Move(s, nil).String())
		}
		row = append(row, names[p.String()])
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	return nil
}

// table4 prints the strategy-space growth (Table IV).
func table4() error {
	header("Table IV — number of pure strategies for different memory steps")
	t := stats.NewTable("Memory Steps", "Game States (4^n)", "Pure Strategies")
	for mem := 1; mem <= evogame.MaxMemorySteps; mem++ {
		states, log2, err := evogame.StrategySpaceSize(mem)
		if err != nil {
			return err
		}
		t.AddRow(mem, states, fmt.Sprintf("2^%d", log2))
	}
	fmt.Print(t.String())
	return nil
}

// table5 prints the WSLS state table (Table V).
func table5() error {
	header("Table V — WSLS moves for memory-one games")
	wsls := strategy.WSLS(1)
	t := stats.NewTable("State", "Previous round (agent,opponent)", "Strategy move")
	for s := 0; s < 4; s++ {
		t.AddRow(s, game.StateString(s, 1), wsls.Move(s, nil).String())
	}
	fmt.Print(t.String())
	return nil
}

// table6 prints the SSets-per-processor efficiency table (Table VI).
func table6(scaling evogame.ScalingOptions) error {
	header("Table VI — parallel efficiency vs. SSets per processor (model, Blue Gene/P)")
	ratios := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8}
	rows, err := evogame.RatioTable(scaling, ratios, 2048, 6, 2048)
	if err != nil {
		return err
	}
	paper := map[float64]float64{0.5: 50, 1: 55, 2: 99.7, 3: 99.7, 4: 99.9, 5: 99.9, 6: 99.9, 7: 100, 8: 100}
	t := stats.NewTable("R (SSets/processor)", "Modelled P.E. (%)", "Paper P.E. (%)")
	for _, r := range rows {
		t.AddRow(r.Ratio, r.EfficiencyPercent, paper[r.Ratio])
	}
	fmt.Print(t.String())
	return nil
}

// tableCapacity prints the memory-capacity check (the paper's claim that
// memory-six is the largest depth that fits).
func tableCapacity() error {
	header("Memory capacity — largest memory depth / population that fits (Section V-C)")
	t := stats.NewTable("Machine", "Processors", "Population (SSets)", "Max memory steps", "Max SSets at memory-six")
	for _, tc := range []struct {
		machine evogame.MachineName
		procs   int
		ssets   int
	}{
		{evogame.MachineBlueGeneP, 1024, 32768},
		{evogame.MachineBlueGeneP, 16384, 32768},
		{evogame.MachineBlueGeneQ, 16384, 32768},
	} {
		cap, err := evogame.CheckMemoryCapacity(tc.machine, tc.ssets, tc.procs)
		if err != nil {
			return err
		}
		t.AddRow(string(tc.machine), tc.procs, tc.ssets, cap.MaxMemorySteps, cap.MaxTotalSSets)
	}
	fmt.Print(t.String())
	return nil
}

// tableScenarios sweeps the scenario registry: every registered game is run
// under every registered update rule on the serial engine (incremental
// evaluation, noiseless) and the resulting cooperativity is reported.  This
// is the registry counterpart of Table I: the paper fixes IPD + Fermi, the
// registry opens the rest of the matrix.
func tableScenarios(opts options) error {
	header("Scenario registry — cooperativity per (game, update rule) pair")
	ssets, gens := 48, 4000
	if opts.full {
		ssets, gens = 128, 20000
	}
	fmt.Printf("serial runs: %d SSets x 4 agents, memory-one, %d generations, noiseless, eval incremental\n", ssets, gens)
	t := stats.NewTable("Game", "Payoff [R,S,T,P]", "Rule", "Distinct", "Top strategy", "Top %", "Defecting states %")
	for _, gameName := range evogame.Games() {
		if gameName == "generic" {
			// The generic spec's canonical payoff is the PD matrix, so its
			// rows would duplicate the ipd ones bit for bit.
			continue
		}
		info, err := evogame.DescribeGame(gameName)
		if err != nil {
			return err
		}
		for _, ruleName := range evogame.UpdateRules() {
			res, err := evogame.Simulate(context.Background(), evogame.SimulationConfig{
				NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: 1,
				Rounds: evogame.DefaultRounds, PCRate: 1, MutationRate: 0.05, Beta: 1,
				Generations: gens, Seed: opts.seed,
				EvalMode: evogame.EvalIncremental, Game: gameName, UpdateRule: ruleName,
			})
			if err != nil {
				return fmt.Errorf("game %s rule %s: %w", gameName, ruleName, err)
			}
			last := res.Samples[len(res.Samples)-1]
			t.AddRow(gameName, fmt.Sprintf("%v", info.Payoff), ruleName,
				last.DistinctStrategies, last.TopStrategy,
				fmt.Sprintf("%.0f", 100*last.TopFraction),
				fmt.Sprintf("%.0f", 100*last.MeanDefectingStates))
		}
	}
	fmt.Print(t.String())
	fmt.Println("note: IPD tends toward defection-heavy strategies; snowdrift keeps cooperation at")
	fmt.Println("equilibrium (best reply to a defector is to cooperate); stag hunt coordinates on one")
	fmt.Println("of its equilibria.  The generic game (canonical payoff = ipd's) is omitted: pass a")
	fmt.Println("custom matrix via cmd/evogame -game generic -payoff R,S,T,P instead")
	return nil
}

// tableTopology measures the structured-population layer on the heavy
// path: the distributed engine evaluates every SSet's fitness every
// generation under full replay (the paper's workload), so restricting
// interaction to a sparse neighbor graph cuts the games per generation
// from S*(S-1) to S*k by construction — no caching involved.  The sweep
// runs the identical workload per topology at S = 512 and reports games
// per generation and wallclock against the well-mixed baseline.
func tableTopology(opts options) error {
	header("Topology registry — games/generation and wallclock vs. well-mixed (S = 512, full evaluation)")
	ssets, gens, ranks := 512, 5, 5
	if opts.full {
		gens = 20
	}
	fmt.Printf("distributed runs: %d SSets x 4 agents, memory-one, %d generations, %d ranks, opt level 3, eval full\n",
		ssets, gens, ranks)
	t := stats.NewTable("Topology", "Mean degree", "Games/gen", "Wallclock (s)", "Speedup vs wellmixed")
	var baseWall float64
	for _, topo := range []string{"wellmixed", "ring:8", "torus:moore", "smallworld:8:0.1"} {
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks:             ranks,
			NumSSets:          ssets,
			AgentsPerSSet:     4,
			MemorySteps:       1,
			Rounds:            evogame.DefaultRounds,
			PCRate:            0.1,
			MutationRate:      0.05,
			Generations:       gens,
			Seed:              opts.seed,
			OptimizationLevel: 3,
			Topology:          topo,
		})
		if err != nil {
			return fmt.Errorf("topology %s: %w", topo, err)
		}
		neigh, err := evogame.TopologyNeighbors(topo, ssets, opts.seed)
		if err != nil {
			return err
		}
		totalDeg := 0
		for _, row := range neigh {
			totalDeg += len(row)
		}
		speedup := "1.00x"
		if topo == "wellmixed" {
			baseWall = res.WallClockSeconds
		} else if res.WallClockSeconds > 0 {
			speedup = fmt.Sprintf("%.2fx", baseWall/res.WallClockSeconds)
		}
		t.AddRow(topo,
			fmt.Sprintf("%.1f", float64(totalDeg)/float64(ssets)),
			fmt.Sprintf("%.0f", float64(res.TotalGames)/float64(gens)),
			fmt.Sprintf("%.3f", res.WallClockSeconds),
			speedup)
	}
	fmt.Print(t.String())
	fmt.Println("note: a sparse topology makes the full evaluation O(S*k) games by construction,")
	fmt.Println("orthogonal to (and composable with) the cached/incremental eval modes")
	return nil
}

// figure4 reports strong scaling as the number of SSets grows (Figure 4).
func figure4(opts options, scaling evogame.ScalingOptions) error {
	header("Figure 4 — strong scaling vs. population size (model, Blue Gene/P)")
	procs := []int{64, 128, 256, 512, 1024, 2048}
	t := stats.NewTable(append([]string{"SSets"}, procsHeader(procs)...)...)
	for _, ssets := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		points, err := evogame.PredictStrongScaling(scaling, ssets, 6, procs)
		if err != nil {
			return err
		}
		row := []interface{}{ssets}
		for _, p := range points {
			row = append(row, fmt.Sprintf("%.1f%%", p.EfficiencyPercent))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	fmt.Println("paper: efficiency collapses once SSets/processor < 1; larger populations scale further")

	// Small real-rank confirmation of the same trend.
	ssets := 48
	ranks := []int{2, 3, 5, 9}
	gens := 10
	if opts.full {
		ssets, gens = 96, 20
	}
	fmt.Printf("\nreal goroutine-rank confirmation (%d SSets, memory-one, %d generations):\n", ssets, gens)
	rt := stats.NewTable("SSet ranks", "Wallclock (s)", "Speedup", "Efficiency (%)")
	var base float64
	for i, r := range ranks {
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks: r + 1, NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: 1,
			Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
			Generations: gens, Seed: opts.seed, OptimizationLevel: 3,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			base = res.WallClockSeconds
		}
		speedup := stats.Speedup(base, res.WallClockSeconds) * float64(ranks[0])
		eff := stats.StrongEfficiency(base, ranks[0], res.WallClockSeconds, r)
		rt.AddRow(r, res.WallClockSeconds, speedup, eff)
	}
	fmt.Print(rt.String())
	return nil
}

func procsHeader(procs []int) []string {
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = fmt.Sprintf("P=%d", p)
	}
	return out
}

// figure5 reports the runtime breakdown across memory steps (Figure 5).
func figure5(opts options, scaling evogame.ScalingOptions) error {
	header("Figure 5 — runtime breakdown vs. memory steps")
	// Real runs, scaled down from the paper's 2,048 SSets / 2,048 processors.
	ssets, ranks, gens := 32, 5, 5
	if opts.full {
		ssets, gens = 64, 10
	}
	fmt.Printf("real distributed runs: %d SSets, %d generations, %d ranks\n", ssets, gens, ranks)
	t := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)", "Wallclock (s)")
	for mem := 1; mem <= evogame.MaxMemorySteps; mem++ {
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks: ranks, NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: mem,
			Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
			Generations: gens, Seed: opts.seed, OptimizationLevel: 3,
		})
		if err != nil {
			return err
		}
		t.AddRow(mem, res.ComputeSeconds, res.CommSeconds, res.WallClockSeconds)
	}
	fmt.Print(t.String())

	// The paper attributes the runtime growth to identifying the current
	// state; the optimized rolling-code kernel flattens it, so replay the
	// low memory depths with the original linear search to expose the
	// effect (memory five and six are skipped: a 4,096-row search per round
	// is impractically slow, which is the paper's point).
	fmt.Println("\nsame sweep with the original linear state search (optimization level 1), memory 1..4:")
	lt := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)", "Wallclock (s)")
	for mem := 1; mem <= 4; mem++ {
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks: ranks, NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: mem,
			Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
			Generations: gens, Seed: opts.seed, OptimizationLevel: 1,
		})
		if err != nil {
			return err
		}
		lt.AddRow(mem, res.ComputeSeconds, res.CommSeconds, res.WallClockSeconds)
	}
	fmt.Print(lt.String())

	fmt.Println("\nmodel prediction for the paper's workload (2,048 SSets, 20 generations, 2,048 BG/P processors):")
	points, err := evogame.MemorySweep(scaling, 2048, 20, 2048)
	if err != nil {
		return err
	}
	mt := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)")
	for _, p := range points {
		mt.AddRow(p.MemorySteps, p.ComputeSeconds, p.CommSeconds)
	}
	fmt.Print(mt.String())
	fmt.Println("paper: runtime rises with memory depth (state identification), computation dominates communication")
	return nil
}

// figure6a reports weak scaling (Figure 6a).
func figure6a(opts options, scaling evogame.ScalingOptions) error {
	header("Figure 6(a) — weak scaling, 4,096 SSets per processor, memory-six (model)")
	procsP := []int{1024, 4096, 16384, 65536, 294912}
	pointsP, err := evogame.PredictWeakScaling(scaling, 4096, 4096, 6, procsP)
	if err != nil {
		return err
	}
	scalingQ := scaling
	scalingQ.Machine = evogame.MachineBlueGeneQ
	procsQ := []int{1024, 4096, 16384}
	pointsQ, err := evogame.PredictWeakScaling(scalingQ, 4096, 4096, 6, procsQ)
	if err != nil {
		return err
	}
	t := stats.NewTable("Machine", "Processors", "Seconds/generation", "Efficiency (%)")
	for _, p := range pointsP {
		t.AddRow("BG/P", p.Processors, p.SecondsPerGeneration, p.EfficiencyPercent)
	}
	for _, p := range pointsQ {
		t.AddRow("BG/Q", p.Processors, p.SecondsPerGeneration, p.EfficiencyPercent)
	}
	fmt.Print(t.String())
	fmt.Println("paper: >=99% weak scaling efficiency to 294,912 BG/P processors and 16,384 BG/Q tasks")

	// Real weak scaling on goroutine ranks: constant SSets per rank.
	perRank := 8
	gens := 10
	rankCounts := []int{2, 4, 8}
	if opts.full {
		perRank, gens = 16, 20
		rankCounts = []int{2, 4, 8, 16}
	}
	fmt.Printf("\nreal goroutine-rank weak scaling (%d SSets per rank, memory-one, %d generations):\n", perRank, gens)
	rt := stats.NewTable("SSet ranks", "Total SSets", "Wallclock (s)", "Efficiency (%)")
	var base float64
	for i, r := range rankCounts {
		total := perRank * r
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks: r + 1, NumSSets: total, AgentsPerSSet: 4, MemorySteps: 1,
			Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
			Generations: gens, Seed: opts.seed, OptimizationLevel: 3, SkipFitnessWhenIdle: true,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			base = res.WallClockSeconds
		}
		rt.AddRow(r, total, res.WallClockSeconds, stats.WeakEfficiency(base, res.WallClockSeconds))
	}
	fmt.Print(rt.String())
	fmt.Println("note: real weak scaling on a single host is limited by the physical core count; the")
	fmt.Println("model rows above carry the Blue Gene extrapolation")
	return nil
}

// figure6b reports strong scaling (Figure 6b).
func figure6b(opts options, scaling evogame.ScalingOptions) error {
	header("Figure 6(b) — strong scaling, 32,768 SSets, memory-six (model, Blue Gene/P)")
	procs := []int{1024, 2048, 8192, 16384, 262144}
	points, err := evogame.PredictStrongScaling(scaling, 32768, 6, procs)
	if err != nil {
		return err
	}
	paper := map[int]float64{1024: 100, 2048: 99, 8192: 99, 16384: 99, 262144: 82}
	t := stats.NewTable("Processors", "Speedup", "Efficiency (%)", "Paper efficiency (%)")
	for _, p := range points {
		t.AddRow(p.Processors, p.Speedup, p.EfficiencyPercent, paper[p.Processors])
	}
	fmt.Print(t.String())

	// Real strong scaling on goroutine ranks.
	ssets, gens := 64, 10
	rankCounts := []int{1, 2, 4, 8}
	if opts.full {
		ssets, gens = 128, 20
	}
	fmt.Printf("\nreal goroutine-rank strong scaling (%d SSets, memory-one, %d generations):\n", ssets, gens)
	rt := stats.NewTable("SSet ranks", "Wallclock (s)", "Speedup", "Efficiency (%)")
	var base float64
	for i, r := range rankCounts {
		res, err := evogame.SimulateParallel(evogame.ParallelConfig{
			Ranks: r + 1, NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: 1,
			Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
			Generations: gens, Seed: opts.seed, OptimizationLevel: 3,
		})
		if err != nil {
			return err
		}
		if i == 0 {
			base = res.WallClockSeconds
		}
		rt.AddRow(r, res.WallClockSeconds,
			stats.Speedup(base, res.WallClockSeconds)*float64(rankCounts[0]),
			stats.StrongEfficiency(base, rankCounts[0], res.WallClockSeconds, r))
	}
	fmt.Print(rt.String())
	return nil
}
