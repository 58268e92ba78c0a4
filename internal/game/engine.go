package game

import (
	"fmt"
	"sync"

	"evogame/internal/rng"
)

// Player is one side of an Iterated Prisoner's Dilemma game.  The strategy
// package provides the pure (bit-vector) and mixed (probabilistic)
// implementations; the game package only needs to ask the player for its
// move in a given state.
type Player interface {
	// MemorySteps returns the memory depth n of the strategy.
	MemorySteps() int
	// Move returns the player's move in the given packed state.  src may be
	// nil when Deterministic() is true.
	Move(state int, src *rng.Source) Move
	// Deterministic reports whether the strategy needs randomness to choose
	// its move (mixed strategies do, pure strategies do not).
	Deterministic() bool
}

// AccumMode selects how the engine accumulates fitness each round.  It is
// the axis of the paper's "Instruction"-level optimization in Figure 3 (the
// hand-coded fused multiply-add fitness kernel).  The zero value is the
// optimized AccumLookup; only the Figure 3 ablation (parallel optimization
// levels 0–2) asks for AccumBranching.
type AccumMode int

const (
	// AccumLookup (the default) resolves each round's payoff through the
	// fused 4-entry look-up table (Matrix.Table) indexed by the round
	// outcome code.
	AccumLookup AccumMode = iota
	// AccumBranching resolves each round's payoff through the four-way
	// comparison of Matrix.Payoff.
	AccumBranching
)

// String implements fmt.Stringer.
func (m AccumMode) String() string {
	switch m {
	case AccumBranching:
		return "branching"
	case AccumLookup:
		return "lookup"
	default:
		return fmt.Sprintf("AccumMode(%d)", int(m))
	}
}

// Engine plays Iterated Prisoner's Dilemma games.  An Engine's
// configuration is immutable after construction and it is safe for
// concurrent use by multiple goroutines as long as each call supplies its
// own rng.Source; the only mutable state is the atomic kernel-mix counters
// (KernelStats) and the pooled batch scratch buffers.
type Engine struct {
	spec      Spec
	payoff    Matrix
	table     [4]float64
	rounds    int
	noise     float64
	flip      rng.Bernoulli // noise as an integer threshold, drawn once per move
	memSteps  int
	stateMode StateMode
	accumMode AccumMode
	kernel    KernelMode
	intPayoff bool
	states    *StateTable

	stats     kernelCounters
	batchPool sync.Pool // of *batchBuffers
}

// EngineConfig collects the knobs of the IPD kernel.  The zero value is not
// valid; use the documented defaults below.
type EngineConfig struct {
	// Game is the scenario the engine plays (see Spec and the registry).
	// The zero value selects the paper's IPD spec, so legacy configurations
	// behave exactly as before the scenario registry existed.
	Game Spec
	// Payoff overrides the spec's canonical payoff matrix; it must satisfy
	// the spec's constraints.  The zero value selects Game.Payoff (which for
	// the default IPD spec is Standard()).
	Payoff Matrix
	// Rounds is the number of rounds per game (the paper uses 200).
	Rounds int
	// Noise is the probability, per move, that a player's intended move is
	// flipped (the execution errors of Section III-F).  0 disables noise.
	Noise float64
	// MemorySteps is the memory depth n shared by both players.
	MemorySteps int
	// StateMode selects linear-search or rolling state identification.
	StateMode StateMode
	// AccumMode selects branching or look-up fitness accumulation.
	AccumMode AccumMode
	// Kernel selects the deterministic-game inner loop: the zero value,
	// KernelAuto, closes the joint-state cycle in closed form whenever that
	// is bit-exact (see KernelMode); KernelFullReplay forces the
	// round-by-round reference loop.
	Kernel KernelMode
}

// DefaultRounds is the number of IPD rounds per generation used throughout
// the paper's experiments.
const DefaultRounds = 200

// NewEngine validates the configuration and returns an Engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Game.Name == "" {
		cfg.Game = IPD()
	}
	if cfg.Payoff == (Matrix{}) {
		cfg.Payoff = cfg.Game.Payoff
	}
	if err := cfg.Game.Validate(cfg.Payoff); err != nil {
		return nil, err
	}
	cfg.Game.Payoff = cfg.Payoff
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("game: rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.Noise < 0 || cfg.Noise > 1 {
		return nil, fmt.Errorf("game: noise must be in [0,1], got %v", cfg.Noise)
	}
	if cfg.MemorySteps < 1 || cfg.MemorySteps > MaxMemorySteps {
		return nil, fmt.Errorf("game: memory steps must be in [1,%d], got %d", MaxMemorySteps, cfg.MemorySteps)
	}
	if !cfg.Kernel.Valid() {
		return nil, fmt.Errorf("game: invalid kernel mode %v", cfg.Kernel)
	}
	e := &Engine{
		spec:      cfg.Game,
		payoff:    cfg.Payoff,
		table:     cfg.Payoff.Table(),
		rounds:    cfg.Rounds,
		noise:     cfg.Noise,
		flip:      rng.NewBernoulli(cfg.Noise),
		memSteps:  cfg.MemorySteps,
		stateMode: cfg.StateMode,
		accumMode: cfg.AccumMode,
		kernel:    cfg.Kernel,
		intPayoff: cfg.Payoff.IntegerValued(),
	}
	if cfg.StateMode == StateLinearSearch {
		e.states = NewStateTable(cfg.MemorySteps)
	}
	return e, nil
}

// MemorySteps returns the memory depth of games this engine plays.
func (e *Engine) MemorySteps() int { return e.memSteps }

// Rounds returns the number of rounds per game.
func (e *Engine) Rounds() int { return e.rounds }

// Noise returns the per-move error probability.
func (e *Engine) Noise() float64 { return e.noise }

// Payoff returns the engine's payoff matrix.
func (e *Engine) Payoff() Matrix { return e.payoff }

// Kernel returns the engine's kernel mode.
func (e *Engine) Kernel() KernelMode { return e.kernel }

// Game returns the scenario spec the engine plays (with the effective
// payoff matrix installed).
func (e *Engine) Game() Spec { return e.spec }

// GameID returns the canonical identity of the game this engine plays:
// scenario, effective payoff values and rounds per game.  The fitness
// subsystem incorporates it into cache keys so memoized results can never
// leak between scenarios.
func (e *Engine) GameID() string {
	return fmt.Sprintf("%s|rounds=%d", e.spec.ID(), e.rounds)
}

// Result holds the outcome of one Iterated Prisoner's Dilemma game.
type Result struct {
	// FitnessA and FitnessB are the total payoffs accumulated by each player
	// over all rounds.
	FitnessA float64
	FitnessB float64
	// CooperationsA and CooperationsB count how many rounds each player
	// cooperated; used by validation studies and tests.
	CooperationsA int
	CooperationsB int
	// Rounds is the number of rounds actually played.
	Rounds int
}

func (r Result) averageFitness() (float64, float64) {
	if r.Rounds == 0 {
		return 0, 0
	}
	return r.FitnessA / float64(r.Rounds), r.FitnessB / float64(r.Rounds)
}

// AverageFitnessA returns player A's mean per-round payoff.
func (r Result) AverageFitnessA() float64 { a, _ := r.averageFitness(); return a }

// AverageFitnessB returns player B's mean per-round payoff.
func (r Result) AverageFitnessB() float64 { _, b := r.averageFitness(); return b }

// Play runs one game between a and b and returns both players' accumulated
// fitness.  src is required when noise > 0 or either strategy is mixed; it
// may be nil for a fully deterministic game.  Play returns an error if the
// players' memory depths do not match the engine's.
func (e *Engine) Play(a, b Player, src *rng.Source) (Result, error) {
	if a.MemorySteps() != e.memSteps || b.MemorySteps() != e.memSteps {
		return Result{}, fmt.Errorf("game: player memory (%d, %d) does not match engine memory %d",
			a.MemorySteps(), b.MemorySteps(), e.memSteps)
	}
	needRand := e.noise > 0 || !a.Deterministic() || !b.Deterministic()
	if needRand && src == nil {
		return Result{}, fmt.Errorf("game: rng source required (noise=%v, deterministic=%v/%v)",
			e.noise, a.Deterministic(), b.Deterministic())
	}
	if !needRand && e.kernel != KernelFullReplay && e.intPayoff {
		// Deterministic noiseless game over an integer-valued payoff matrix:
		// the joint-state walk is periodic and the closed-form totals are
		// bit-identical to a full replay (see KernelMode).  KernelBatch only
		// changes batch routing, so single games keep the KernelAuto fast
		// path.  A walk that reaches the horizon before closing its cycle
		// was a replay, and is counted as one.
		wa, okA := a.(MoveTable)
		wb, okB := b.(MoveTable)
		if okA && okB {
			k := e.newCycleKernel()
			k.wa, k.wb = wa.Words(), wb.Words()
			var res Result
			if k.play(e.rounds, &res) {
				e.stats.cycleGames.Add(1)
			} else {
				e.stats.scalarGames.Add(1)
			}
			return res, nil
		}
	}

	histA := NewHistory(e.memSteps)
	histB := NewHistory(e.memSteps)
	res := Result{Rounds: e.rounds}

	for r := 0; r < e.rounds; r++ {
		stateA := histA.StateVia(e.stateMode, e.states)
		stateB := histB.StateVia(e.stateMode, e.states)

		moveA := a.Move(stateA, src)
		moveB := b.Move(stateB, src)
		if e.noise > 0 {
			if src.Bernoulli(e.flip) {
				moveA = moveA.Flip()
			}
			if src.Bernoulli(e.flip) {
				moveB = moveB.Flip()
			}
		}

		if moveA == Cooperate {
			res.CooperationsA++
		}
		if moveB == Cooperate {
			res.CooperationsB++
		}

		if e.accumMode == AccumLookup {
			res.FitnessA += e.table[RoundCode(moveA, moveB)]
			res.FitnessB += e.table[RoundCode(moveB, moveA)]
		} else {
			res.FitnessA += e.payoff.Payoff(moveA, moveB)
			res.FitnessB += e.payoff.Payoff(moveB, moveA)
		}

		histA.Push(moveA, moveB)
		histB.Push(moveB, moveA)
	}
	e.stats.scalarGames.Add(1)
	return res, nil
}

// PlayFitness is a convenience wrapper around Play that returns only the
// focal player's fitness, matching the IPD() pseudo code of the paper which
// returns the fitness accumulated by the agent calling it.
func (e *Engine) PlayFitness(my, opp Player, src *rng.Source) (float64, error) {
	res, err := e.Play(my, opp, src)
	if err != nil {
		return 0, err
	}
	return res.FitnessA, nil
}
