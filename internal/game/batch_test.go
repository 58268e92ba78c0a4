package game

import (
	"fmt"
	"testing"

	"evogame/internal/rng"
)

func wordPlayerFromBits(mem int, bits uint64) *wordPlayer {
	p := newWordPlayer(mem)
	p.words[0] = bits
	return p
}

func newTestEngines(t *testing.T, mem int, noise float64) (batch, scalar *Engine) {
	t.Helper()
	mk := func(k KernelMode) *Engine {
		e, err := NewEngine(EngineConfig{
			Rounds: DefaultRounds, MemorySteps: mem, Noise: noise,
			AccumMode: AccumLookup, Kernel: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(KernelBatch), mk(KernelFullReplay)
}

func checkBatchMatchesScalar(t *testing.T, batch, scalar *Engine, a Player, opps []Player, seed uint64) {
	t.Helper()
	noisy := scalar.Noise() > 0 || !a.Deterministic()
	for _, b := range opps {
		if !b.Deterministic() {
			noisy = true
		}
	}
	var batchSrcs []*rng.Source
	if noisy {
		batchSrcs = make([]*rng.Source, len(opps))
		for i := range batchSrcs {
			batchSrcs[i] = rng.New(seed + uint64(i))
		}
	}
	got := make([]Result, len(opps))
	if err := batch.PlayBatch(a, opps, batchSrcs, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range opps {
		var src *rng.Source
		if noisy || !b.Deterministic() {
			src = rng.New(seed + uint64(i))
		}
		want, err := scalar.Play(a, b, src)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("opponent %d: batch %+v, scalar full replay %+v", i, got[i], want)
		}
		// The batch kernel must also leave each game's RNG stream exactly
		// where the scalar loop does.
		if src != nil && batchSrcs[i].State() != src.State() {
			t.Fatalf("opponent %d: RNG stream diverged after the game", i)
		}
	}
}

// checkPairsMatchScalar is checkBatchMatchesScalar for PlayPairs: game i
// is focals[i] against opps[i], each with its own source.
func checkPairsMatchScalar(t *testing.T, batch, scalar *Engine, focals, opps []Player, seed uint64) {
	t.Helper()
	srcs := make([]*rng.Source, len(opps))
	for i := range srcs {
		srcs[i] = rng.New(seed + uint64(i))
	}
	got := make([]Result, len(opps))
	if err := batch.PlayPairs(focals, opps, srcs, got); err != nil {
		t.Fatal(err)
	}
	for i := range opps {
		src := rng.New(seed + uint64(i))
		want, err := scalar.Play(focals[i], opps[i], src)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair %d: PlayPairs %+v, scalar full replay %+v", i, got[i], want)
		}
		if srcs[i].State() != src.State() {
			t.Fatalf("pair %d: RNG stream diverged after the game", i)
		}
	}
}

// coinPlayer is a memory-n mixed strategy that cooperates with probability
// p in every state; the SWAR kernel cannot replay it.
type coinPlayer struct {
	mem int
	p   float64
}

func (c *coinPlayer) MemorySteps() int    { return c.mem }
func (c *coinPlayer) Deterministic() bool { return false }
func (c *coinPlayer) Move(_ int, src *rng.Source) Move {
	if src.Bool(c.p) {
		return Cooperate
	}
	return Defect
}

// TestPlayBatchEdgeNoise pins the threshold lane draws at the edges of the
// noise range: the smallest and largest probabilities the threshold
// represents, an even coin, and noise 1, where every move flips and no
// draw is made at all.
func TestPlayBatchEdgeNoise(t *testing.T) {
	for _, noise := range []float64{1e-9, 0.5, 1 - 0x1p-53, 1} {
		t.Run(fmt.Sprint(noise), func(t *testing.T) {
			batch, scalar := newTestEngines(t, 2, noise)
			src := rng.New(71)
			opps := make([]Player, 70)
			for i := range opps {
				opps[i] = randomWordPlayer(2, src)
			}
			checkBatchMatchesScalar(t, batch, scalar, randomWordPlayer(2, src), opps, 400)
			if noise < 1 {
				return
			}
			srcs := make([]*rng.Source, len(opps))
			for i := range srcs {
				srcs[i] = rng.New(uint64(i))
			}
			if err := batch.PlayBatch(opps[0], opps, srcs, make([]Result, len(opps))); err != nil {
				t.Fatal(err)
			}
			for i, s := range srcs {
				if s.State() != rng.New(uint64(i)).State() {
					t.Fatalf("noise 1: game %d drew from its source", i)
				}
			}
		})
	}
}

// TestPlayPairsPerLaneFocals checks PlayPairs with a distinct focal player
// per lane against per-game Play, at memory 1-3, noiseless and noisy, over
// more than one chunk.  Some lanes hold a mixed focal or opponent and fall
// back to the scalar path; one chunk shares a single focal, which takes the
// broadcast fill.
func TestPlayPairsPerLaneFocals(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		for _, noise := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("mem%d-noise%v", mem, noise), func(t *testing.T) {
				batch, scalar := newTestEngines(t, mem, noise)
				src := rng.New(uint64(300 + mem))
				pool := make([]Player, 5)
				for i := range pool {
					pool[i] = randomWordPlayer(mem, src)
				}
				const n = 2*BatchLanes + 9
				focals, opps := make([]Player, n), make([]Player, n)
				for i := range focals {
					focals[i] = pool[src.Intn(len(pool))]
					if i >= BatchLanes && i < 2*BatchLanes {
						focals[i] = pool[0] // the shared-focal chunk
					}
					opps[i] = randomWordPlayer(mem, src)
					switch i % 11 {
					case 4:
						focals[i] = &coinPlayer{mem: mem, p: 0.3}
					case 9:
						opps[i] = &coinPlayer{mem: mem, p: 0.7}
					}
				}
				checkPairsMatchScalar(t, batch, scalar, focals, opps, uint64(50*mem))
			})
		}
	}
}

// TestPlayPairsWrongMemoryLane checks that a lane whose player has the
// wrong memory depth falls back to Play and surfaces Play's error.
func TestPlayPairsWrongMemoryLane(t *testing.T) {
	batch, scalar := newTestEngines(t, 2, 0.05)
	src := rng.New(5)
	focals := []Player{randomWordPlayer(2, src), randomWordPlayer(3, src)}
	opps := []Player{randomWordPlayer(2, src), randomWordPlayer(2, src)}
	srcs := []*rng.Source{rng.New(1), rng.New(2)}
	_, want := scalar.Play(focals[1], opps[1], rng.New(2))
	if want == nil {
		t.Fatal("Play accepted a wrong-memory player")
	}
	err := batch.PlayPairs(focals, opps, srcs, make([]Result, 2))
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("PlayPairs error %v, want Play's %v", err, want)
	}
	if err := batch.PlayPairs(focals[:1], opps, srcs, make([]Result, 2)); err == nil {
		t.Fatal("PlayPairs accepted fewer focals than opponents")
	}
	if err := batch.PlayPairs([]Player{nil}, opps[:1], srcs[:1], make([]Result, 1)); err == nil {
		t.Fatal("PlayPairs accepted a nil focal player")
	}
}

// TestPlayBatchExhaustiveMemoryOne pins batch-vs-scalar equivalence for
// every ordered pair of the 16 memory-one pure strategies, the paper's core
// strategy space.
func TestPlayBatchExhaustiveMemoryOne(t *testing.T) {
	batch, scalar := newTestEngines(t, 1, 0)
	opps := make([]Player, 16)
	for b := 0; b < 16; b++ {
		opps[b] = wordPlayerFromBits(1, uint64(b))
	}
	for a := 0; a < 16; a++ {
		checkBatchMatchesScalar(t, batch, scalar, wordPlayerFromBits(1, uint64(a)), opps, 0)
	}
}

// TestPlayBatchRandomDeeperMemory spot-checks equivalence with random move
// tables at memory 2..4, noiseless and noisy.  KernelBatch forces the SWAR
// path even at memory-4, where KernelAuto would prefer the scalar loop.
func TestPlayBatchRandomDeeperMemory(t *testing.T) {
	for mem := 2; mem <= 4; mem++ {
		for _, noise := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("mem%d-noise%v", mem, noise), func(t *testing.T) {
				batch, scalar := newTestEngines(t, mem, noise)
				src := rng.New(uint64(90 + mem))
				opps := make([]Player, 80) // > one chunk, ragged second chunk
				for i := range opps {
					opps[i] = randomWordPlayer(mem, src)
				}
				for trial := 0; trial < 4; trial++ {
					focal := randomWordPlayer(mem, src)
					checkBatchMatchesScalar(t, batch, scalar, focal, opps, uint64(1000*mem+trial))
				}
			})
		}
	}
}

// TestPlayBatchRaggedTail covers opponent counts that do not fill whole
// 64-lane chunks.
func TestPlayBatchRaggedTail(t *testing.T) {
	batch, scalar := newTestEngines(t, 1, 0)
	src := rng.New(17)
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		opps := make([]Player, n)
		for i := range opps {
			opps[i] = randomWordPlayer(1, src)
		}
		checkBatchMatchesScalar(t, batch, scalar, randomWordPlayer(1, src), opps, 5)
	}
}

// TestPlayBatchMixedLanesFallBack mixes SWAR-ineligible opponents (mixed
// strategies) into the batch; those lanes must take the scalar path with
// their own sources while the rest stay bit-sliced.
func TestPlayBatchMixedLanesFallBack(t *testing.T) {
	for _, noise := range []float64{0, 0.02} {
		batch, scalar := newTestEngines(t, 1, noise)
		src := rng.New(23)
		opps := make([]Player, 70)
		for i := range opps {
			if i%7 == 3 {
				opps[i] = &randPlayer{p: 0.4}
			} else {
				opps[i] = randomWordPlayer(1, src)
			}
		}
		checkBatchMatchesScalar(t, batch, scalar, randomWordPlayer(1, src), opps, 31)
		// A mixed focal player forces the scalar path for the whole batch.
		checkBatchMatchesScalar(t, batch, scalar, &randPlayer{p: 0.6}, opps, 37)
	}
}

// TestPlayBatchKernelRouting pins which kernel each mode uses, via the
// engine's kernel-mix counters: under KernelAuto noiseless batches close
// cycles at every depth and noisy ones batch up to batchAutoMaxMemory;
// KernelFullReplay replays every game and KernelBatch always batches.
func TestPlayBatchKernelRouting(t *testing.T) {
	src := rng.New(3)
	play := func(mem int, noise float64, k KernelMode) KernelStats {
		e, err := NewEngine(EngineConfig{
			Rounds: DefaultRounds, MemorySteps: mem, Noise: noise, AccumMode: AccumLookup, Kernel: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		opps := make([]Player, 10)
		srcs := make([]*rng.Source, len(opps))
		for i := range opps {
			opps[i] = randomWordPlayer(mem, src)
			srcs[i] = rng.New(uint64(i))
		}
		out := make([]Result, len(opps))
		if err := e.PlayBatch(randomWordPlayer(mem, src), opps, srcs, out); err != nil {
			t.Fatal(err)
		}
		return e.KernelStats()
	}

	for _, mem := range []int{1, 4} {
		if s := play(mem, 0, KernelAuto); s.BatchCalls != 0 || s.CycleGames+s.ScalarGames != 10 {
			t.Fatalf("auto mode at memory-%d noiseless did not close cycles: %+v", mem, s)
		}
	}
	for mem := 1; mem <= batchAutoMaxMemory; mem++ {
		if s := play(mem, 0.05, KernelAuto); s.BatchGames != 10 || s.BatchCalls != 1 {
			t.Fatalf("auto mode at memory-%d noisy did not batch: %+v", mem, s)
		}
	}
	if s := play(batchAutoMaxMemory+1, 0.05, KernelAuto); s.BatchCalls != 0 || s.CycleGames != 0 || s.ScalarGames != 10 {
		t.Fatalf("auto mode at memory-%d noisy did not replay: %+v", batchAutoMaxMemory+1, s)
	}
	if s := play(1, 0, KernelFullReplay); s.BatchCalls != 0 || s.CycleGames != 0 || s.ScalarGames != 10 {
		t.Fatalf("full-replay mode used a fast path: %+v", s)
	}
	if s := play(4, 0, KernelBatch); s.BatchGames != 10 || s.BatchCalls != 1 {
		t.Fatalf("batch mode at memory-4 did not batch: %+v", s)
	}
	occ := KernelStats{BatchGames: 10, BatchCalls: 1}.BatchLaneOccupancy()
	if occ != 10.0/64 {
		t.Fatalf("BatchLaneOccupancy = %v, want %v", occ, 10.0/64)
	}
}

// TestPlayBatchAutoNoiselessMatchesReplay checks the noiseless block path
// of KernelAuto — one cycle kernel per chunk, results written in place —
// against per-game full replay, for PlayBatch and PlayPairs at memory 1, 2,
// 3 and 6 over a ragged third chunk.  Some lanes hold a mixed strategy with
// its own source, or a deterministic player without a packed move table;
// those fall back to Play, which must leave each source where full replay
// does.  The kernel counters must move exactly as per-game Play under
// KernelAuto moves them: no SWAR batch, and every eligible game counted
// once, as a cycle game if its walk closed and a scalar one otherwise.
func TestPlayBatchAutoNoiselessMatchesReplay(t *testing.T) {
	for _, mem := range []int{1, 2, 3, 6} {
		t.Run(fmt.Sprintf("mem%d", mem), func(t *testing.T) {
			auto := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: mem})
			full := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: mem, Kernel: KernelFullReplay})
			src := rng.New(uint64(600 + mem))
			noTable := &testPlayer{mem: mem, moves: make([]Move, NumStates(mem))}
			for s := range noTable.moves {
				noTable.moves[s] = Move(src.Intn(2))
			}
			const n = 137
			pool := make([]Player, 4)
			for i := range pool {
				pool[i] = randomWordPlayer(mem, src)
			}
			focals, opps := make([]Player, n), make([]Player, n)
			for i := range opps {
				focals[i] = pool[src.Intn(len(pool))]
				opps[i] = randomWordPlayer(mem, src)
				switch i % 13 {
				case 5:
					opps[i] = &coinPlayer{mem: mem, p: 0.4}
				case 8:
					opps[i] = noTable
				case 11:
					focals[i] = noTable
				}
			}
			for _, tc := range []struct {
				name  string
				focal func(i int) Player
				play  func(srcs []*rng.Source, out []Result) error
			}{
				{"batch", func(int) Player { return focals[0] }, func(srcs []*rng.Source, out []Result) error {
					return auto.PlayBatch(focals[0], opps, srcs, out)
				}},
				{"pairs", func(i int) Player { return focals[i] }, func(srcs []*rng.Source, out []Result) error {
					return auto.PlayPairs(focals, opps, srcs, out)
				}},
			} {
				before := auto.KernelStats()
				srcs := make([]*rng.Source, n)
				for i := range srcs {
					srcs[i] = rng.New(uint64(i))
				}
				got := make([]Result, n)
				if err := tc.play(srcs, got); err != nil {
					t.Fatal(err)
				}
				single := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: mem})
				for i := range opps {
					ref := rng.New(uint64(i))
					want, err := full.Play(tc.focal(i), opps[i], ref)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("%s game %d: auto %+v, full replay %+v", tc.name, i, got[i], want)
					}
					if srcs[i].State() != ref.State() {
						t.Fatalf("%s game %d: RNG stream diverged after the game", tc.name, i)
					}
					if _, err := single.Play(tc.focal(i), opps[i], rng.New(uint64(i))); err != nil {
						t.Fatal(err)
					}
				}
				after := auto.KernelStats()
				delta := KernelStats{
					ScalarGames: after.ScalarGames - before.ScalarGames,
					CycleGames:  after.CycleGames - before.CycleGames,
					BatchGames:  after.BatchGames - before.BatchGames,
					BatchCalls:  after.BatchCalls - before.BatchCalls,
				}
				if want := single.KernelStats(); delta != want || want.CycleGames == 0 {
					t.Fatalf("%s: kernel stats moved by %+v, per-game Play by %+v", tc.name, delta, want)
				}
			}
		})
	}
}

func TestPlayBatchValidation(t *testing.T) {
	batch, _ := newTestEngines(t, 1, 0)
	opps := []Player{randomWordPlayer(1, rng.New(1))}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, nil, make([]Result, 2)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, make([]*rng.Source, 2), make([]Result, 1)); err == nil {
		t.Fatal("mismatched srcs length accepted")
	}
	if err := batch.PlayBatch(nil, opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil focal player accepted")
	}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), []Player{nil}, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil opponent accepted")
	}
	noisy, _ := newTestEngines(t, 1, 0.05)
	if err := noisy.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("noisy batch without sources accepted")
	}
	if err := noisy.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, make([]*rng.Source, 1), make([]Result, 1)); err == nil {
		t.Fatal("noisy batch with a nil per-game source accepted")
	}
	mismatched := randomWordPlayer(2, rng.New(3))
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), []Player{mismatched}, nil, make([]Result, 1)); err == nil {
		t.Fatal("opponent with mismatched memory accepted")
	}
	if err := batch.PlayBatch(mismatched, opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("focal player with mismatched memory accepted")
	}
}

// TestPlayBatchSteadyStateZeroAllocs is the alloc gate on the batch hot
// path: once the engine's buffer pool is warm, a full-occupancy batch must
// not allocate — SWAR noiseless or noisy, or KernelAuto's noiseless cycle
// block, broadcast-focal or paired.
func TestPlayBatchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	for _, tc := range []struct {
		noise  float64
		kernel KernelMode
	}{{0, KernelBatch}, {0.05, KernelBatch}, {0, KernelAuto}} {
		noise := tc.noise
		batch := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 1, Noise: noise, Kernel: tc.kernel})
		src := rng.New(11)
		focals := make([]Player, BatchLanes)
		opps := make([]Player, BatchLanes)
		srcs := make([]*rng.Source, BatchLanes)
		for i := range opps {
			focals[i] = randomWordPlayer(1, src)
			opps[i] = randomWordPlayer(1, src)
			srcs[i] = rng.New(uint64(i))
		}
		out := make([]Result, len(opps))
		for _, c := range []struct {
			name string
			play func() error
		}{
			{"batch", func() error { return batch.PlayBatch(focals[0], opps, srcs, out) }},
			{"pairs", func() error { return batch.PlayPairs(focals, opps, srcs, out) }},
		} {
			name, play := c.name, c.play
			if err := play(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := play(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v noise %v: steady-state %s allocates %v times per call, want 0", tc.kernel, noise, name, allocs)
			}
		}
	}
}

func benchmarkPlayBatch(b *testing.B, mem int, noise float64, kernel KernelMode) {
	e, err := NewEngine(EngineConfig{
		Rounds: DefaultRounds, MemorySteps: mem, Noise: noise,
		AccumMode: AccumLookup, Kernel: kernel,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2013)
	opps := make([]Player, BatchLanes)
	for i := range opps {
		opps[i] = randomWordPlayer(mem, src)
	}
	focal := randomWordPlayer(mem, src)
	var srcs []*rng.Source
	if noise > 0 {
		srcs = make([]*rng.Source, len(opps))
		for i := range srcs {
			srcs[i] = rng.New(uint64(i))
		}
	}
	out := make([]Result, len(opps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PlayBatch(focal, opps, srcs, out); err != nil {
			b.Fatal(err)
		}
	}
	games := float64(b.N) * float64(len(opps))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/games, "ns/game")
}

func BenchmarkPlayBatchMemoryOne(b *testing.B)      { benchmarkPlayBatch(b, 1, 0, KernelBatch) }
func BenchmarkPlayBatchMemoryOneNoisy(b *testing.B) { benchmarkPlayBatch(b, 1, 0.05, KernelBatch) }
func BenchmarkPlayBatchMemoryThree(b *testing.B)    { benchmarkPlayBatch(b, 3, 0, KernelBatch) }
func BenchmarkPlayBatchScalarRef(b *testing.B)      { benchmarkPlayBatch(b, 1, 0, KernelFullReplay) }
