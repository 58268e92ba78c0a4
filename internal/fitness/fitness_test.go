package fitness

import (
	"sync"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

func newEngine(t testing.TB, noise float64) *game.Engine {
	t.Helper()
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      50,
		MemorySteps: 1,
		Noise:       noise,
		StateMode:   game.StateRolling,
		AccumMode:   game.AccumLookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// playPair interns a and b through the cache's registry and plays them with
// PlayID, the entry point the Evaluator uses.
func playPair(t testing.TB, cache *PairCache, a, b strategy.Strategy) game.Result {
	t.Helper()
	ida, err := cache.Interner().Intern(a)
	if err != nil {
		t.Fatal(err)
	}
	idb, err := cache.Interner().Intern(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cache.PlayID(ida, idb)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEvalModeStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		mode EvalMode
		name string
	}{{EvalFull, "full"}, {EvalCached, "cached"}, {EvalIncremental, "incremental"}} {
		if tc.mode.String() != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.mode, tc.mode.String(), tc.name)
		}
		got, err := ParseEvalMode(tc.name)
		if err != nil || got != tc.mode {
			t.Errorf("ParseEvalMode(%q) = %v, %v", tc.name, got, err)
		}
		if !tc.mode.Valid() {
			t.Errorf("%v should be valid", tc.mode)
		}
	}
	if _, err := ParseEvalMode("bogus"); err == nil {
		t.Error("ParseEvalMode accepted an unknown mode")
	}
	if EvalMode(7).Valid() || EvalMode(-1).Valid() {
		t.Error("out-of-range modes should be invalid")
	}
	if EvalMode(7).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestPairCacheMemoizesAndMirrors(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	tft, alld := strategy.TFT(1), strategy.AllD(1)

	first := playPair(t, cache, tft, alld)
	if cache.Plays() != 1 || cache.Hits() != 0 {
		t.Fatalf("after first play: plays=%d hits=%d", cache.Plays(), cache.Hits())
	}
	// Same ordered pair: a hit with the identical result.
	again := playPair(t, cache, tft, alld)
	if again != first {
		t.Fatalf("cached result differs: %+v vs %+v", again, first)
	}
	// Reversed pair: also a hit, with the mirrored result.
	rev := playPair(t, cache, alld, tft)
	if rev.FitnessA != first.FitnessB || rev.FitnessB != first.FitnessA ||
		rev.CooperationsA != first.CooperationsB || rev.Rounds != first.Rounds {
		t.Fatalf("mirrored result wrong: %+v vs %+v", rev, first)
	}
	if cache.Plays() != 1 || cache.Hits() != 2 {
		t.Fatalf("after mirror hit: plays=%d hits=%d", cache.Plays(), cache.Hits())
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d ordered pairs, want 2", cache.Len())
	}
	// A strategy with the same move table but a different value must share
	// the canonical key.
	tft2, err := strategy.ParsePure(1, tft.String())
	if err != nil {
		t.Fatal(err)
	}
	playPair(t, cache, tft2, alld)
	if cache.Plays() != 1 {
		t.Fatal("equal move tables should share one cache entry")
	}
}

func TestPairCacheMatchesEngine(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	all := strategy.AllMemoryOne()
	for _, a := range all {
		for _, b := range all {
			want, err := eng.Play(a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := playPair(t, cache, a, b)
			if got != want {
				t.Fatalf("%s vs %s: cache %+v, engine %+v", a, b, got, want)
			}
		}
	}
	if cache.Hits() == 0 {
		t.Fatal("mirrored storage should produce hits during an all-pairs sweep")
	}
}

func TestPairCacheConcurrentUse(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	all := strategy.AllMemoryOne()
	var wg sync.WaitGroup
	results := make([][]game.Result, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker interns the table itself, so the registry is
			// exercised concurrently along with the shards.
			ids := make([]uint32, len(all))
			for i, s := range all {
				id, err := cache.Interner().Intern(s)
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = id
			}
			for _, a := range ids {
				for _, b := range ids {
					res, err := cache.PlayID(a, b)
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = append(results[w], res)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d observed a different result at game %d", w, i)
			}
		}
	}
	if cache.Len() != 16*16 {
		t.Fatalf("cache holds %d pairs, want 256", cache.Len())
	}
}

func TestNewPairCacheNilEngine(t *testing.T) {
	if _, err := NewPairCache(nil); err == nil {
		t.Fatal("accepted a nil engine")
	}
}

func TestCacheUsable(t *testing.T) {
	pure := []strategy.Strategy{strategy.TFT(1), strategy.WSLS(1)}
	if !CacheUsable(newEngine(t, 0), pure) {
		t.Fatal("noiseless deterministic table should be cache-usable")
	}
	if CacheUsable(newEngine(t, 0.05), pure) {
		t.Fatal("noisy engine must not be cache-usable")
	}
	if CacheUsable(nil, pure) {
		t.Fatal("nil engine must not be cache-usable")
	}
	mixed := append([]strategy.Strategy{strategy.NewMixed(1)}, pure...)
	if CacheUsable(newEngine(t, 0), mixed) {
		t.Fatal("mixed strategies must not be cache-usable")
	}
	if CacheUsable(newEngine(t, 0), []strategy.Strategy{nil}) {
		t.Fatal("nil strategies must not be cache-usable")
	}
}

// bruteFitness computes SSet i's all-pairs fitness directly with the engine.
func bruteFitness(t *testing.T, eng *game.Engine, table []strategy.Strategy, i int) float64 {
	t.Helper()
	total := 0.0
	for j := range table {
		if j == i {
			continue
		}
		res, err := eng.Play(table[i], table[j], nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.FitnessA
	}
	return total
}

func testTable(n int, seed uint64) []strategy.Strategy {
	src := rng.New(seed)
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = strategy.RandomPure(1, src)
	}
	return table
}

// wellMixed returns the complete graph on n SSets.
func wellMixed(t testing.TB, n int) topology.Graph {
	t.Helper()
	g, err := (topology.Spec{}).Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newIncremental builds an EvalIncremental evaluator over the rows [lo, hi)
// of table on graph g (well-mixed when nil) with a private cache.
func newIncremental(t *testing.T, eng *game.Engine, g topology.Graph, table []strategy.Strategy, lo, hi int) *Evaluator {
	t.Helper()
	if g == nil {
		g = wellMixed(t, len(table))
	}
	e, err := NewEvaluator(eng, EvalIncremental, nil, g, table, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || e.matrix == nil {
		t.Fatal("EvalIncremental on a noiseless pure table built no matrix")
	}
	return e
}

func TestIncrementalMatrixMatchesBruteForce(t *testing.T) {
	eng := newEngine(t, 0)
	table := testTable(12, 5)
	m := newIncremental(t, eng, nil, table, 0, len(table))
	for i := range table {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("row %d: matrix %v, brute force %v", i, got, want)
		}
	}
}

func TestIncrementalMatrixUpdateStaysExact(t *testing.T) {
	eng := newEngine(t, 0)
	table := testTable(10, 9)
	m := newIncremental(t, eng, nil, table, 0, len(table))
	// Materialise every row, then churn the table through a sequence of
	// strategy changes and require the delta-updated sums to equal a fresh
	// brute-force evaluation after every change.
	for i := range table {
		if _, err := m.Fitness(i); err != nil {
			t.Fatal(err)
		}
	}
	src := rng.New(77)
	for step := 0; step < 25; step++ {
		idx := src.Intn(len(table))
		var s strategy.Strategy
		if src.Coin() {
			s = strategy.RandomPure(1, src) // mutation
		} else {
			s = table[src.Intn(len(table))].Clone() // adoption
		}
		table[idx] = s
		if err := m.Update(idx, s); err != nil {
			t.Fatal(err)
		}
		for i := range table {
			got, err := m.Fitness(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteFitness(t, eng, table, i); got != want {
				t.Fatalf("step %d: row %d: matrix %v, brute force %v", step, i, got, want)
			}
		}
	}
}

func TestIncrementalMatrixLazyRows(t *testing.T) {
	table := []strategy.Strategy{strategy.TFT(1), strategy.AllD(1), strategy.WSLS(1), strategy.AllC(1)}
	m := newIncremental(t, newEngine(t, 0), nil, table, 0, len(table))
	cache := m.Cache()
	if cache.Plays() != 0 {
		t.Fatal("matrix construction should not play games")
	}
	if _, err := m.Fitness(2); err != nil {
		t.Fatal(err)
	}
	plays := cache.Plays()
	if plays == 0 || plays > 3 {
		t.Fatalf("one row of 3 opponents played %d games", plays)
	}
	// An update before other rows are built must not force them.
	if err := m.Update(1, strategy.TFT(1)); err != nil {
		t.Fatal(err)
	}
	if cache.Plays() > plays+1 {
		t.Fatalf("update of one column played %d extra games", cache.Plays()-plays)
	}
}

func TestIncrementalMatrixBlockRange(t *testing.T) {
	eng := newEngine(t, 0)
	table := testTable(9, 13)
	lo, hi := 3, 7
	m := newIncremental(t, eng, nil, table, lo, hi)
	for i := lo; i < hi; i++ {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("row %d: matrix %v, brute force %v", i, got, want)
		}
	}
	if _, err := m.Fitness(0); err == nil {
		t.Fatal("accepted a row outside the materialised block")
	}
	// A change outside the block must still delta-update local columns.
	table[0] = strategy.AllD(1)
	if err := m.Update(0, table[0]); err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("after remote update, row %d: matrix %v, brute force %v", i, got, want)
		}
	}
}

func TestIncrementalMatrixValidation(t *testing.T) {
	eng := newEngine(t, 0)
	table := testTable(4, 1)
	g := wellMixed(t, 4)
	if _, err := NewEvaluator(eng, EvalIncremental, nil, nil, table, 0, 4); err == nil {
		t.Fatal("accepted a nil graph")
	}
	if _, err := NewEvaluator(eng, EvalIncremental, nil, wellMixed(t, 5), table, 0, 4); err == nil {
		t.Fatal("accepted a graph of the wrong size")
	}
	if _, err := NewEvaluator(eng, EvalIncremental, nil, g, table, -1, 4); err == nil {
		t.Fatal("accepted a negative lo")
	}
	if _, err := NewEvaluator(eng, EvalIncremental, nil, g, table, 2, 1); err == nil {
		t.Fatal("accepted hi < lo")
	}
	if _, err := NewEvaluator(eng, EvalIncremental, nil, g, table, 0, 5); err == nil {
		t.Fatal("accepted hi beyond the table")
	}
	// A nil entry fails the cache-validity gate: the engine keeps its full
	// path, which rejects the entry itself.
	if e, err := NewEvaluator(eng, EvalIncremental, nil, wellMixed(t, 2), []strategy.Strategy{strategy.TFT(1), nil}, 0, 2); e != nil || err != nil {
		t.Fatalf("nil strategy: evaluator %v, err %v; want the full path", e, err)
	}
	m := newIncremental(t, eng, g, table, 0, 4)
	if err := m.Update(9, strategy.TFT(1)); err == nil {
		t.Fatal("accepted an out-of-range update index")
	}
	if err := m.Update(0, nil); err == nil {
		t.Fatal("accepted a nil strategy update")
	}
}

// TestIncrementalMatrixGraphRestricted covers the degree-indexed graph
// rows: fitness sums only graph neighbors, Update delta-updates only
// adjacent built rows, and both stay equal to a brute-force neighbor sum
// through a churn of strategy changes.
func TestIncrementalMatrixGraphRestricted(t *testing.T) {
	eng := newEngine(t, 0)
	table := testTable(12, 5)
	spec, err := topology.Parse("ring:4")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(len(table), 3)
	if err != nil {
		t.Fatal(err)
	}
	bruteNeighbor := func(i int) float64 {
		total := 0.0
		for _, j := range topology.Neighbors(g, i) {
			res, err := eng.Play(table[i], table[j], nil)
			if err != nil {
				t.Fatal(err)
			}
			total += res.FitnessA
		}
		return total
	}
	m := newIncremental(t, eng, g, table, 0, len(table))
	if m.matrix.graph == nil {
		t.Fatal("a ring collapsed to the dense well-mixed rows")
	}
	for i := range table {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNeighbor(i); got != want {
			t.Fatalf("row %d: graph matrix %v, brute force %v", i, got, want)
		}
	}
	src := rng.New(77)
	for step := 0; step < 30; step++ {
		idx := src.Intn(len(table))
		table[idx] = strategy.RandomPure(1, src)
		if err := m.Update(idx, table[idx]); err != nil {
			t.Fatal(err)
		}
		for i := range table {
			got, err := m.Fitness(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteNeighbor(i); got != want {
				t.Fatalf("step %d row %d: graph matrix %v, brute force %v", step, i, got, want)
			}
		}
	}
	// The complete graph must collapse to the dense well-mixed path and
	// agree with the all-pairs brute force.
	dense := newIncremental(t, eng, nil, table, 0, len(table))
	if dense.matrix.graph != nil {
		t.Fatal("the complete graph did not collapse to the dense rows")
	}
	for i := range table {
		got, err := dense.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("complete-graph row %d: %v, want %v", i, got, want)
		}
	}
}
