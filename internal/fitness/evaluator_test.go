package fitness

import (
	"fmt"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// FuzzEvaluator drives an Evaluator through a random table, graph, row
// range and sequence of strategy changes, and after every change requires
// Fitness(i) of every evaluated row to equal a plain loop of engine.Play
// sums over i's graph neighbors, bit for bit.  The fuzzed inputs pick:
//   - the memory depth (1–3) and the table seed;
//   - the population size (3–72) and the graph: well-mixed, or a ring of
//     even degree;
//   - the mode bits: EvalCached or EvalIncremental, private or shared cache;
//   - the row range [lo, hi);
//   - the events, two bytes each: the changed SSet, then either an
//     adoption (copy of another SSet's strategy) or a mutation.
func FuzzEvaluator(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(5), uint8(0), uint8(0), uint8(0), uint8(255), []byte{0, 2, 3, 1, 7, 4})
	f.Add(uint64(2), uint8(1), uint8(9), uint8(1), uint8(1), uint8(2), uint8(5), []byte{4, 1, 4, 0, 9, 6, 1, 1})
	f.Add(uint64(3), uint8(2), uint8(13), uint8(2), uint8(3), uint8(7), uint8(1), []byte{12, 3, 0, 5, 6, 6, 6, 7})
	f.Add(uint64(4), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0), uint8(0), []byte{1, 1, 2, 0, 0, 3})
	f.Fuzz(func(t *testing.T, seed uint64, mem, size, topo, mode, lo8, hi8 uint8, events []byte) {
		memory := 1 + int(mem)%3
		n := 3 + int(size)%70 // up to 72: well-mixed rows span two batch blocks
		var spec topology.Spec
		if deg := 2 * (int(topo) % 4); deg > 0 && deg < n {
			var err error
			if spec, err = topology.Parse(fmt.Sprintf("ring:%d", deg)); err != nil {
				t.Fatal(err)
			}
		}
		g, err := spec.Build(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		lo := int(lo8) % n
		hi := lo + 1 + int(hi8)%(n-lo)
		evalMode := EvalCached
		if mode&1 != 0 {
			evalMode = EvalIncremental
		}
		eng, err := game.NewEngine(game.EngineConfig{Rounds: 30, MemorySteps: memory})
		if err != nil {
			t.Fatal(err)
		}
		var shared *PairCache
		if mode&2 != 0 {
			if shared, err = NewPairCache(eng); err != nil {
				t.Fatal(err)
			}
		}
		src := rng.New(seed)
		table := make([]strategy.Strategy, n)
		for i := range table {
			table[i] = strategy.RandomPure(memory, src)
		}
		ev, err := NewEvaluator(eng, evalMode, shared, g, table, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil || (ev.matrix != nil) != (evalMode == EvalIncremental) {
			t.Fatalf("%v evaluator not built as requested: %+v", evalMode, ev)
		}

		check := func(step int) {
			t.Helper()
			for i := lo; i < hi; i++ {
				want := 0.0
				for _, j := range topology.Neighbors(g, i) {
					res, err := eng.Play(table[i], table[j], nil)
					if err != nil {
						t.Fatal(err)
					}
					want += res.FitnessA
				}
				got, err := ev.Fitness(i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%v %v rows [%d,%d) step %d: Fitness(%d) = %v, oracle %v",
						evalMode, spec, lo, hi, step, i, got, want)
				}
			}
		}
		check(0)
		for k := 0; k+1 < len(events) && k < 64; k += 2 {
			idx := int(events[k]) % n
			var s strategy.Strategy
			if events[k+1]&1 == 0 {
				s = table[int(events[k+1]>>1)%n].Clone()
			} else {
				s = strategy.RandomPure(memory, src)
			}
			table[idx] = s
			if err := ev.Update(idx, s); err != nil {
				t.Fatal(err)
			}
			check(k/2 + 1)
		}
	})
}
