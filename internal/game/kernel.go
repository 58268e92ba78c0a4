package game

import "fmt"

// KernelMode selects the inner-loop implementation Engine.Play uses for a
// fully deterministic, noiseless game.
//
// The joint (stateA, stateB) trajectory of two deterministic memory-n
// automata is itself a deterministic walk over at most 4^n x 4^n joint
// states, so it must enter a cycle within that many rounds (16 joint states
// at the paper's memory-one).  Once the cycle is known, the totals of a
// rounds-long game follow in closed form — prefix + k*cycle + tail — instead
// of replaying every round.  With an integer-valued payoff matrix every
// partial sum is an exactly representable integer, so the closed form is
// bit-identical to the replayed sum; engines therefore keep their
// per-seed trajectories unchanged whichever mode runs.
type KernelMode int

const (
	// KernelAuto (the default) closes the joint-state cycle whenever the
	// game qualifies: noiseless, both players deterministic with packed move
	// tables (see MoveTable), and an integer-valued payoff matrix.  Games
	// that do not qualify replay every round exactly as KernelFullReplay.
	// Engine.PlayBatch and PlayPairs close the cycles of a noiseless batch
	// block by block, one kernel per 64-game chunk; noisy batches up to
	// memory-3 take the bit-sliced SWAR kernel, the only fast path for
	// noisy games.
	KernelAuto KernelMode = iota
	// KernelFullReplay always replays all rounds; it is the pre-optimization
	// reference kernel and the baseline the perf tables compare against.
	KernelFullReplay
	// KernelBatch behaves like KernelAuto for single games but forces
	// Engine.PlayBatch and PlayPairs to use the bit-sliced SWAR kernel for
	// eligible lanes, noiseless or noisy, at every memory depth (KernelAuto
	// batches only noisy games up to memory-3, where the multiplexer tree
	// is cheaper than the scalar loop, and closes noiseless games' cycles
	// instead).  Like the other fast paths it is bit-identical per seed, so
	// the mode exists for forcing the batch path in measurements and tests
	// rather than for changing outcomes.
	KernelBatch
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelFullReplay:
		return "full-replay"
	case KernelBatch:
		return "batch"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined kernel modes.
func (m KernelMode) Valid() bool {
	return m == KernelAuto || m == KernelFullReplay || m == KernelBatch
}

// ParseKernelMode maps the names accepted by command-line flags ("auto",
// "full-replay", "batch") to a KernelMode; the empty string selects
// KernelAuto.
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "full-replay":
		return KernelFullReplay, nil
	case "batch":
		return KernelBatch, nil
	default:
		return KernelAuto, fmt.Errorf("game: unknown kernel mode %q (want auto, full-replay or batch)", s)
	}
}

// MoveTable is implemented by deterministic players whose per-state moves
// are available as a packed bit vector: bit s of the word slice is 1 when
// the player defects in state s.  strategy.Pure implements it.  The
// cycle-closing kernel requires it so the per-round inner loop is plain
// word arithmetic with no interface dispatch; deterministic players without
// it simply take the full-replay path.
type MoveTable interface {
	// Words returns the packed move table, least-significant bit first.  The
	// slice must not be modified and must cover all 4^n states.
	Words() []uint64
}

// cycleKernel is the state of the cycle-closing walk: both players' packed
// move tables, the per-round payoff lookup table and the state geometry.
// Engine.Play builds one per game and the noiseless block path one per
// chunk, swapping in each lane's tables; either way it lives on the
// caller's stack, keeping the fast path free of heap allocations.
type cycleKernel struct {
	wa, wb []uint64
	table  [4]float64
	mask   int
	shift  uint
}

// newCycleKernel returns a kernel with the engine's payoff table and state
// geometry and no move tables yet.
func (e *Engine) newCycleKernel() cycleKernel {
	return cycleKernel{
		table: e.table,
		mask:  (1 << (2 * uint(e.memSteps))) - 1,
		shift: 2 * uint(e.memSteps),
	}
}

// accum collects running game totals.
type accum struct {
	fitA, fitB   float64
	coopA, coopB int
}

// addTimes adds n copies of b to a.
func (a *accum) addTimes(b accum, n int) {
	a.fitA += float64(n) * b.fitA
	a.fitB += float64(n) * b.fitB
	a.coopA += n * b.coopA
	a.coopB += n * b.coopB
}

// result returns the totals as the Result of a rounds-long game.
func (a accum) result(rounds int) Result {
	return Result{FitnessA: a.fitA, FitnessB: a.fitB, CooperationsA: a.coopA, CooperationsB: a.coopB, Rounds: rounds}
}

// round plays one round from joint state s, adds its payoffs and
// cooperation counts to a, and returns the next joint state.
func (k *cycleKernel) round(s int, a *accum) int {
	sA := s >> k.shift
	sB := s & k.mask
	ma := int(k.wa[sA>>6]>>(uint(sA)&63)) & 1
	mb := int(k.wb[sB>>6]>>(uint(sB)&63)) & 1
	a.fitA += k.table[ma<<1|mb]
	a.fitB += k.table[mb<<1|ma]
	a.coopA += 1 - ma
	a.coopB += 1 - mb
	sA = ((sA << 2) | ma<<1 | mb) & k.mask
	sB = ((sB << 2) | mb<<1 | ma) & k.mask
	return sA<<k.shift | sB
}

// play plays a noiseless rounds-long game between k.wa and k.wb in one
// walk of at most rounds steps over the joint-state sequence, writing the
// totals to res.  The walk accumulates the totals as it goes and keeps a
// Brent tortoise at step 2^j - 1 together with the totals up to it (done)
// and since it (lap).  When the walk returns to the tortoise's joint state,
// everything after the tortoise repeats with period lam, so the game is
// done + (reps+1)·lap plus a tail of fewer than lam rounds; closed reports
// that this happened.  If the walk reaches the horizon first, it was itself
// the full replay.  With an integer-valued payoff matrix every term is an
// exact integer, so the result is bit-identical to a round-by-round replay.
func (k *cycleKernel) play(rounds int, res *Result) (closed bool) {
	var done, lap accum
	s := InitialState<<k.shift | InitialState
	tortoise, power, lam := s, 1, 0
	for step := 1; step <= rounds; step++ {
		s = k.round(s, &lap)
		lam++
		if s == tortoise {
			done.addTimes(lap, 1+(rounds-step)/lam)
			for i := (rounds - step) % lam; i > 0; i-- {
				s = k.round(s, &done)
			}
			*res = done.result(rounds)
			return true
		}
		if lam == power {
			done.addTimes(lap, 1)
			lap = accum{}
			tortoise, power, lam = s, power<<1, 0
		}
	}
	done.addTimes(lap, 1)
	*res = done.result(rounds)
	return false
}
