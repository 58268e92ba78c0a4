package game

import "fmt"

// KernelMode selects the inner-loop implementation Engine.Play uses for a
// fully deterministic, noiseless game.
//
// The opponent's state is always the focal's state with every round's
// (my, opp) pair swapped, so the game of two deterministic memory-n
// automata is a deterministic walk over the focal's 4^n states alone and
// must enter a cycle within that many rounds (4 at the paper's
// memory-one).  The walk counts each round's outcome code (CC, CD, DC,
// DD); once the cycle is known, the counts of a rounds-long game follow as
// prefix + k*cycle + tail instead of replaying every round, and the totals
// follow from the counts by the closed form the SWAR kernel also uses
// (count·payoff over the four codes).  With integer payoffs and
// max|payoff|·rounds ≤ 2^53 every product and partial sum is an exactly
// representable integer, so the closed form is bit-identical to the
// replayed sum; engines therefore keep their per-seed trajectories
// unchanged whichever mode runs.
type KernelMode int

const (
	// KernelAuto (the default) closes the cycle whenever the game
	// qualifies: noiseless, both players deterministic with packed move
	// tables (see MoveTable), and a payoff matrix whose totals stay exact
	// (integer payoffs, max|payoff|·rounds ≤ 2^53).  Games
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
// move tables, the payoff lookup table and the state mask.  Engine.Play
// builds one per game and the noiseless block path one per chunk, swapping
// in each lane's tables; either way it lives on the caller's stack, keeping
// the fast path free of heap allocations.
type cycleKernel struct {
	wa, wb []uint64
	table  [4]float64
	mask   int
}

// newCycleKernel returns a kernel with the engine's payoff table and state
// mask and no move tables yet.
func (e *Engine) newCycleKernel() cycleKernel {
	return cycleKernel{table: e.table, mask: NumStates(e.memSteps) - 1}
}

// oppBits selects the low (opponent) bit of every round's pair in a packed
// state of any supported memory depth: 0b0101…01 over 2·MaxMemorySteps bits.
const oppBits = (1<<(2*MaxMemorySteps) - 1) / 3

// swapPairs returns a packed state seen from the other player's side: the
// two move bits of every round are swapped (OpponentState without the
// loop).
func swapPairs(s int) int {
	return (s>>1)&oppBits | (s&oppBits)<<1
}

// next plays one round from the focal player's state s and returns the
// focal's next state, whose low two bits are the round's outcome code.
// The opponent's state is s with every round's pair swapped, so the walk
// carries the focal's state alone.
func (k *cycleKernel) next(s int) int {
	o := swapPairs(s)
	ma := int(k.wa[s>>6]>>(uint(s)&63)) & 1
	mb := int(k.wb[o>>6]>>(uint(o)&63)) & 1
	return (s<<2)&k.mask | ma<<1 | mb
}

// totals writes to res the closed form of a game from its outcome counts:
// n[c] is the number of rounds with outcome code c (CC, CD, DC, DD from the
// focal player's side).  Both block kernels build their Results with it.
// When the engine's payoff gate holds (see exactSums) every product and
// partial sum is an exactly representable integer, so the totals are
// bit-identical to a round-by-round replay.
func totals(res *Result, t *[4]float64, n *[4]int) {
	cc, cd, dc, dd := float64(n[0]), float64(n[1]), float64(n[2]), float64(n[3])
	*res = Result{
		FitnessA:      cc*t[0] + cd*t[1] + dc*t[2] + dd*t[3],
		FitnessB:      cc*t[0] + cd*t[2] + dc*t[1] + dd*t[3],
		CooperationsA: n[0] + n[1],
		CooperationsB: n[0] + n[2],
		Rounds:        n[0] + n[1] + n[2] + n[3],
	}
}

// play plays a noiseless rounds-long game between k.wa and k.wb in one
// walk of at most rounds steps over the focal player's states, writing the
// totals to res.  The walk counts each round's outcome code as it goes and
// keeps a Brent tortoise at step 2^j - 1 together with the counts up to it
// (mark).  The opponent's state is a function of the focal's, so when the
// walk returns to the tortoise's state everything after the tortoise
// repeats with period lam: the game is the counts so far plus reps more
// laps of n - mark, plus a tail of fewer than lam rounds; closed reports
// that this happened.  If the walk reaches the horizon first, it was itself
// the full replay.  Either way the Result is totals of the counts.
func (k *cycleKernel) play(rounds int, res *Result) (closed bool) {
	var n, mark [4]int
	s := InitialState
	tortoise, power, lam := s, 1, 0
	for step := 1; step <= rounds; step++ {
		s = k.next(s)
		n[s&3]++
		lam++
		if s == tortoise {
			reps := (rounds - step) / lam
			for c := range n {
				n[c] += reps * (n[c] - mark[c])
			}
			for i := (rounds - step) % lam; i > 0; i-- {
				s = k.next(s)
				n[s&3]++
			}
			totals(res, &k.table, &n)
			return true
		}
		if lam == power {
			mark = n
			tortoise, power, lam = s, power<<1, 0
		}
	}
	totals(res, &k.table, &n)
	return false
}
