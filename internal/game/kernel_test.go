package game

import (
	"fmt"
	"math"
	"testing"

	"evogame/internal/rng"
)

// wordPlayer is a deterministic player backed by a packed move table, the
// shape the cycle-closing kernel requires (strategy.Pure has the same shape;
// the game package cannot import it without a cycle).
type wordPlayer struct {
	mem   int
	words []uint64
}

func newWordPlayer(mem int) *wordPlayer {
	n := NumStates(mem)
	return &wordPlayer{mem: mem, words: make([]uint64, (n+63)/64)}
}

func randomWordPlayer(mem int, src *rng.Source) *wordPlayer {
	p := newWordPlayer(mem)
	src.FillUint64(p.words)
	if rem := NumStates(mem) % 64; rem != 0 {
		p.words[len(p.words)-1] &= (1 << uint(rem)) - 1
	}
	return p
}

func (p *wordPlayer) MemorySteps() int { return p.mem }

func (p *wordPlayer) Deterministic() bool { return true }

func (p *wordPlayer) Words() []uint64 { return p.words }

func (p *wordPlayer) Move(state int, _ *rng.Source) Move {
	return Move(p.words[state>>6] >> (uint(state) & 63) & 1)
}

func (p *wordPlayer) set(state int, m Move) {
	if m == Defect {
		p.words[state>>6] |= 1 << (uint(state) & 63)
	} else {
		p.words[state>>6] &^= 1 << (uint(state) & 63)
	}
}

func TestKernelModeStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		mode KernelMode
		name string
	}{{KernelAuto, "auto"}, {KernelFullReplay, "full-replay"}} {
		if tc.mode.String() != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.mode, tc.mode.String(), tc.name)
		}
		got, err := ParseKernelMode(tc.name)
		if err != nil || got != tc.mode {
			t.Errorf("ParseKernelMode(%q) = %v, %v", tc.name, got, err)
		}
		if !tc.mode.Valid() {
			t.Errorf("%v should be valid", tc.mode)
		}
	}
	if m, err := ParseKernelMode(""); err != nil || m != KernelAuto {
		t.Errorf("empty selection = %v, %v; want KernelAuto", m, err)
	}
	if _, err := ParseKernelMode("bogus"); err == nil {
		t.Error("ParseKernelMode accepted an unknown mode")
	}
	if KernelMode(9).Valid() {
		t.Error("out-of-range mode should be invalid")
	}
	if KernelMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
	if _, err := NewEngine(EngineConfig{Rounds: 10, MemorySteps: 1, Kernel: KernelMode(9)}); err == nil {
		t.Error("NewEngine accepted an invalid kernel mode")
	}
}

// kernelEnginePair builds one engine per kernel mode with otherwise
// identical configuration.
func kernelEnginePair(t *testing.T, cfg EngineConfig) (auto, full *Engine) {
	t.Helper()
	cfg.Kernel = KernelAuto
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel = KernelFullReplay
	f, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, f
}

// TestCycleClosingExhaustiveMemoryOne pins the cycle-closing kernel to the
// full-replay reference over every ordered pair of the 16 memory-one
// deterministic strategies and a spread of round counts (including counts
// small enough that the fast path must fall back).
func TestCycleClosingExhaustiveMemoryOne(t *testing.T) {
	players := make([]*wordPlayer, 16)
	for code := 0; code < 16; code++ {
		p := newWordPlayer(1)
		for s := 0; s < 4; s++ {
			if code&(1<<uint(s)) != 0 {
				p.set(s, Defect)
			}
		}
		players[code] = p
	}
	for _, rounds := range []int{1, 2, 3, 5, 17, 50, 200} {
		auto, full := kernelEnginePair(t, EngineConfig{Rounds: rounds, MemorySteps: 1,
			StateMode: StateRolling, AccumMode: AccumLookup})
		for i, a := range players {
			for j, b := range players {
				want, err := full.Play(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := auto.Play(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("rounds=%d pair (%d,%d): cycle-closing %+v, full replay %+v",
						rounds, i, j, got, want)
				}
			}
		}
	}
}

// TestCycleClosingRandomDeeperMemory cross-checks random strategy pairs at
// memory depths two through four, where the joint-state space is too large
// to enumerate but cycles still close quickly.
func TestCycleClosingRandomDeeperMemory(t *testing.T) {
	src := rng.New(99)
	for mem := 2; mem <= 4; mem++ {
		auto, full := kernelEnginePair(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: mem,
			StateMode: StateRolling, AccumMode: AccumLookup})
		for trial := 0; trial < 40; trial++ {
			a := randomWordPlayer(mem, src)
			b := randomWordPlayer(mem, src)
			want, err := full.Play(a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := auto.Play(a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("memory-%d trial %d: cycle-closing %+v, full replay %+v", mem, trial, got, want)
			}
		}
	}
}

// TestCycleClosingGates verifies the bit-exactness gates: a fractional
// payoff matrix and players without packed move tables both run full replay
// (observable as the replay path's History allocations), while the
// qualifying configuration runs allocation-free.
func TestCycleClosingGates(t *testing.T) {
	a := newWordPlayer(1)
	b := newWordPlayer(1)
	b.set(0, Defect)
	b.set(2, Defect)

	auto, _ := kernelEnginePair(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	if n := testing.AllocsPerRun(50, func() {
		if _, err := auto.Play(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("deterministic fast path allocates %v objects/op, want 0", n)
	}

	// Fractional payoffs: KernelAuto must not take the closed form.
	frac, err := Generic().WithPayoff(Matrix{Reward: 3.25, Sucker: 0.5, Temptation: 4.75, Punishment: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	fracAuto, err := NewEngine(EngineConfig{Game: frac, Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := fracAuto.Play(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}); n == 0 {
		t.Error("fractional payoff matrix still took the cycle-closing path")
	}

	// Deterministic players without packed move tables fall back too.
	plain := makeMemOne(Cooperate, Defect, Cooperate, Defect)
	if n := testing.AllocsPerRun(10, func() {
		if _, err := auto.Play(plain, plain, nil); err != nil {
			t.Fatal(err)
		}
	}); n == 0 {
		t.Error("player without a move table still took the cycle-closing path")
	}
}

// TestCycleClosingSelfPlay covers the symmetric self-play diagonal, whose
// mirror key equals its own key.
func TestCycleClosingSelfPlay(t *testing.T) {
	src := rng.New(3)
	auto, full := kernelEnginePair(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	for trial := 0; trial < 16; trial++ {
		p := randomWordPlayer(1, src)
		want, err := full.Play(p, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := auto.Play(p, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("self-play trial %d: %+v vs %+v", trial, got, want)
		}
		if got.FitnessA != got.FitnessB || got.CooperationsA != got.CooperationsB {
			t.Fatalf("self-play must be symmetric: %+v", got)
		}
	}
}

// jointRho returns mu+lam, the number of distinct joint states on the
// deterministic walk of a against b, by plain per-round play with a map of
// visited states; it stops looking past limit and then returns limit+1.
func jointRho(a, b Player, limit int) int {
	mem := a.MemorySteps()
	hA, hB := NewHistory(mem), NewHistory(mem)
	seen := map[[2]int]bool{}
	for step := 0; step <= limit; step++ {
		key := [2]int{hA.State(), hB.State()}
		if seen[key] {
			return step
		}
		seen[key] = true
		ma, mb := a.Move(hA.State(), nil), b.Move(hB.State(), nil)
		hA.Push(ma, mb)
		hB.Push(mb, ma)
	}
	return limit + 1
}

// sparseWordPlayer is a random memory-n move table that defects in about
// one state in eight, so its games against similar tables close early.
func sparseWordPlayer(mem int, src *rng.Source) *wordPlayer {
	p := randomWordPlayer(mem, src)
	for i := range p.words {
		p.words[i] &= src.Uint64() & src.Uint64()
	}
	return p
}

// TestKernelStatsAttribution pins which counter a move-table game moves: a
// walk that returns to its Brent tortoise before the horizon is a cycle
// game, and a walk that reaches the horizon first is a replay and counts as
// a scalar game.  Brent's tortoise sits at step 2^j-1, so a walk with
// mu+lam ≤ (rounds-1)/3 always closes within the horizon, and one with
// mu+lam > rounds never can.
func TestKernelStatsAttribution(t *testing.T) {
	const mem, rounds = 6, DefaultRounds
	src := rng.New(2013)
	find := func(what string, pair func() (Player, Player), closes bool) (Player, Player) {
		for try := 0; try < 1000; try++ {
			a, b := pair()
			rho := jointRho(a, b, rounds)
			if closes && rho <= (rounds-1)/3 || !closes && rho > rounds {
				return a, b
			}
		}
		t.Fatalf("no %s found", what)
		return nil, nil
	}
	sparse := func() (Player, Player) { return sparseWordPlayer(mem, src), sparseWordPlayer(mem, src) }
	dense := func() (Player, Player) { return randomWordPlayer(mem, src), randomWordPlayer(mem, src) }
	self := func() (Player, Player) { p := randomWordPlayer(mem, src); return p, p }
	for _, tc := range []struct {
		name   string
		pair   func() (Player, Player)
		closes bool
	}{
		{"closing pair", sparse, true},
		{"open pair", dense, false},
		{"self-play", self, true},
	} {
		a, b := find(tc.name, tc.pair, tc.closes)
		auto, full := kernelEnginePair(t, EngineConfig{Rounds: rounds, MemorySteps: mem})
		got, err := auto.Play(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Play(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: cycle walk %+v, full replay %+v", tc.name, got, want)
		}
		wantStats := KernelStats{ScalarGames: 1}
		if tc.closes {
			wantStats = KernelStats{CycleGames: 1}
		}
		if st := auto.KernelStats(); st != wantStats {
			t.Errorf("%s: kernel stats %+v, want %+v", tc.name, st, wantStats)
		}
	}
}

// sameBits reports whether two results are identical bit for bit; unlike
// ==, it tells -0 from +0.
func sameBits(a, b Result) bool {
	return math.Float64bits(a.FitnessA) == math.Float64bits(b.FitnessA) &&
		math.Float64bits(a.FitnessB) == math.Float64bits(b.FitnessB) &&
		a.CooperationsA == b.CooperationsA && a.CooperationsB == b.CooperationsB && a.Rounds == b.Rounds
}

// TestExactSumsGate pins the payoff gate both closed forms sit behind.  Past
// max|payoff|·rounds = 2^53 a replay's running sum rounds after each round,
// so every kernel must replay; just inside the bound the closed forms must
// run and still equal the replay bit for bit.  A -0 payoff must not turn a
// closed form's total into -0.  All 16 memory-one tables play each other
// through Play and PlayBatch under every kernel mode.
func TestExactSumsGate(t *testing.T) {
	const rounds = DefaultRounds
	inside := float64((1 << 53) / rounds)
	players := make([]Player, 16)
	for code := range players {
		players[code] = wordPlayerFromBits(1, uint64(code))
	}
	for _, tc := range []struct {
		name string
		game Spec
		m    Matrix
		fast bool
	}{
		{"past 2^53", IPD(), Matrix{Reward: 1 << 53, Sucker: 1, Temptation: 1<<53 + 2, Punishment: 2}, false},
		{"just inside", IPD(), Matrix{Reward: inside - 2, Sucker: 1, Temptation: inside, Punishment: 2}, true},
		{"negative zero", Generic(), Matrix{Reward: -1, Sucker: -2, Temptation: -3, Punishment: math.Copysign(0, -1)}, true},
	} {
		for _, mode := range []KernelMode{KernelAuto, KernelFullReplay, KernelBatch} {
			e := mustEngine(t, EngineConfig{Game: tc.game, Payoff: tc.m, Rounds: rounds, MemorySteps: 1, Kernel: mode})
			out := make([]Result, len(players))
			for i, a := range players {
				if err := e.PlayBatch(a, players, nil, out); err != nil {
					t.Fatal(err)
				}
				for j, b := range players {
					want := oraclePlay(a, b, tc.m, rounds)
					got, err := e.Play(a, b, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want) || !sameBits(out[j], want) {
						t.Fatalf("%s, %v, pair (%d,%d): Play %+v, PlayBatch %+v, oracle %+v",
							tc.name, mode, i, j, got, out[j], want)
					}
				}
			}
			st := e.KernelStats()
			if fast := st.CycleGames+st.BatchGames > 0; fast != (tc.fast && mode != KernelFullReplay) {
				t.Errorf("%s, %v: kernel stats %+v", tc.name, mode, st)
			}
		}
	}
}

// oraclePlay is the test-only reference for one noiseless game: a plain
// round loop over the last n rounds of play, kept in a slice, asking each
// player for its move with no packed state, cycle logic or History.
func oraclePlay(a, b Player, m Matrix, rounds int) Result {
	type round struct{ a, b Move }
	mem := a.MemorySteps()
	last := make([]round, mem) // last[0] is the most recent round
	payoff := func(my, opp Move) float64 {
		switch {
		case my == Cooperate && opp == Cooperate:
			return m.Reward
		case my == Cooperate:
			return m.Sucker
		case opp == Cooperate:
			return m.Temptation
		default:
			return m.Punishment
		}
	}
	res := Result{Rounds: rounds}
	for r := 0; r < rounds; r++ {
		stateA, stateB := 0, 0
		for i, rd := range last {
			stateA |= (int(rd.a)<<1 | int(rd.b)) << (2 * i)
			stateB |= (int(rd.b)<<1 | int(rd.a)) << (2 * i)
		}
		ma, mb := a.Move(stateA, nil), b.Move(stateB, nil)
		res.FitnessA += payoff(ma, mb)
		res.FitnessB += payoff(mb, ma)
		if ma == Cooperate {
			res.CooperationsA++
		}
		if mb == Cooperate {
			res.CooperationsB++
		}
		last = append([]round{{ma, mb}}, last[:mem-1]...)
	}
	return res
}

// FuzzCycleKernel checks Play and the noiseless block path of PlayBatch
// under KernelAuto against oraclePlay bit for bit: memory 1–6, random move
// tables (masked so that sparse, structured tables whose walks close early
// occur too), rounds 1–400 and a random integer payoff matrix.  Where
// Brent's schedule decides a game's counter (see kernelSplit), it also
// checks the ScalarGames/CycleGames split.
func FuzzCycleKernel(f *testing.F) {
	f.Add(uint8(1), uint16(200), uint64(2013), ^uint64(0), ^uint64(0), false, int8(3), int8(0), int8(5), int8(1))
	f.Add(uint8(6), uint16(200), uint64(7), uint64(0x0101010101010101), uint64(0x8000000000000001), false, int8(3), int8(0), int8(5), int8(1))
	f.Add(uint8(3), uint16(1), uint64(1), ^uint64(0), uint64(0), true, int8(-4), int8(9), int8(0), int8(-128))
	f.Add(uint8(4), uint16(399), uint64(99), uint64(0x00ff00ff00ff00ff), ^uint64(0), true, int8(127), int8(-1), int8(2), int8(2))
	// Rounds shorter than the walk's first repeat: the walk reaches the
	// horizon and counts as a replay.
	f.Add(uint8(5), uint16(4), uint64(1), ^uint64(0), ^uint64(0), false, int8(3), int8(0), int8(5), int8(1))
	f.Add(uint8(2), uint16(2), uint64(1), ^uint64(0), ^uint64(0), false, int8(3), int8(0), int8(5), int8(1))
	f.Add(uint8(3), uint16(11), uint64(8), ^uint64(0), ^uint64(0), true, int8(2), int8(-3), int8(7), int8(0))
	f.Fuzz(func(t *testing.T, mem uint8, rounds uint16, seed, maskA, maskB uint64, self bool, r, s, tp, p int8) {
		n := int(mem)%MaxMemorySteps + 1
		src := rng.New(seed)
		a, b := randomWordPlayer(n, src), randomWordPlayer(n, src)
		for i := range a.words {
			a.words[i] &= maskA
			b.words[i] &= maskB
		}
		if self {
			b = a
		}
		spec, err := Generic().WithPayoff(Matrix{Reward: float64(r), Sucker: float64(s), Temptation: float64(tp), Punishment: float64(p)})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(EngineConfig{Game: spec, Payoff: spec.Payoff, Rounds: int(rounds)%400 + 1, MemorySteps: n})
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Play(a, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := oraclePlay(a, b, e.Payoff(), e.Rounds())
		if got != want {
			t.Fatalf("memory-%d, %d rounds, payoff %+v: Play %+v, oracle %+v", n, e.Rounds(), e.Payoff(), got, want)
		}
		st := e.KernelStats()
		if st.CycleGames+st.ScalarGames != 1 {
			t.Fatalf("one game moved the counters to %+v", st)
		}
		wantAB, knownAB := kernelSplit(a, b, e.Rounds())
		if knownAB && st != wantAB {
			t.Fatalf("memory-%d, %d rounds: one game moved the counters to %+v, want %+v", n, e.Rounds(), st, wantAB)
		}
		// The noiseless block path of PlayBatch shares the walk; the
		// self-play lane in the middle gives it a second table pair.
		var out [3]Result
		if err := e.PlayBatch(a, []Player{b, a, b}, nil, out[:]); err != nil {
			t.Fatal(err)
		}
		for i, w := range []Result{want, oraclePlay(a, a, e.Payoff(), e.Rounds()), want} {
			if out[i] != w {
				t.Fatalf("memory-%d, %d rounds, payoff %+v: PlayBatch lane %d %+v, oracle %+v", n, e.Rounds(), e.Payoff(), i, out[i], w)
			}
		}
		st = e.KernelStats()
		if st.BatchCalls != 0 || st.CycleGames+st.ScalarGames != 4 {
			t.Fatalf("one game and a 3-lane block moved the counters to %+v", st)
		}
		if wantAA, knownAA := kernelSplit(a, a, e.Rounds()); knownAB && knownAA {
			want := KernelStats{ScalarGames: 3*wantAB.ScalarGames + wantAA.ScalarGames, CycleGames: 3*wantAB.CycleGames + wantAA.CycleGames}
			if st != want {
				t.Fatalf("memory-%d, %d rounds: one game and a 3-lane block moved the counters to %+v, want %+v", n, e.Rounds(), st, want)
			}
		}
	})
}

// kernelSplit returns the counters one cycle walk of a against b moves
// when Brent's schedule decides them, with known false otherwise.  The walk
// cannot close before its first repeated state (step mu+lam), so a game of
// fewer rounds is a replay; it always closes by step 3(mu+lam)-2, since the
// tortoise sits at step 2^j-1 (see TestKernelStatsAttribution).
func kernelSplit(a, b Player, rounds int) (st KernelStats, known bool) {
	switch rho := jointRho(a, b, rounds); {
	case rho > rounds:
		return KernelStats{ScalarGames: 1}, true
	case rho <= (rounds-1)/3:
		return KernelStats{CycleGames: 1}, true
	}
	return KernelStats{}, false
}

// BenchmarkCycleClosingMemorySix plays random memory-6 move-table pairs at
// the paper's 200 rounds, the pair-cache miss of the memory-6 workloads.
func BenchmarkCycleClosingMemorySix(b *testing.B) {
	src := rng.New(6)
	players := make([]*wordPlayer, 64)
	for i := range players {
		players[i] = randomWordPlayer(6, src)
	}
	eng, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Play(players[i%64], players[(i/64+i+1)%64], nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMemoryOne(b *testing.B) {
	src := rng.New(11)
	a := randomWordPlayer(1, src)
	p := randomWordPlayer(1, src)
	for _, mode := range []KernelMode{KernelFullReplay, KernelAuto} {
		eng, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
			StateMode: StateRolling, AccumMode: AccumLookup, Kernel: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kernel-%s", mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Play(a, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
