package game

import (
	"fmt"
	"sync/atomic"

	"evogame/internal/bitvec"
	"evogame/internal/rng"
)

// This file implements the bit-sliced (SWAR) batch kernel: up to 64 games
// played simultaneously, one game per bit lane of a uint64 word (see
// internal/bitvec).  Every round of every game is played, but 64 games
// advance per word operation instead of one.  PlayBatch pits one focal
// strategy against many opponents (the full-replay workload the scaling
// studies measure); PlayPairs gives every lane its own focal strategy, so a
// caller can fill one batch with the misses of several evaluations.  Both
// are wrappers over the one kernel.  Under KernelAuto a noiseless chunk
// takes the cycle-closing walk instead (see playChunk), so this kernel
// serves noisy batches there.
//
// Layout.  The focal players' joint histories are kept as 2n bit planes:
// plane j holds bit j of the focal's packed game state in every lane.  The
// opponents' own states need no storage at all — an opponent's state is the
// focal state with each round's (my, opp) bit pair swapped, so plane j of
// the opponents' view is focal plane j^1.  Next moves come from a
// multiplexer tree over the 4^n-entry move tables (bitvec.MuxSelect).  The
// tables are transposed once per batch so bit L of leaf s is lane L's move
// in state s; the focal table of a chunk whose lanes all share one focal
// strategy is instead broadcast to 0/^0 leaves, which skips the per-lane
// transpose.  Per-round outcomes accumulate in vertical ripple-carry
// counters; the per-lane totals are reconstructed once at the end of the
// batch.
//
// Exactness.  The per-lane totals come from the outcome counts through the
// closed form the cycle-closing walk also uses (totals), so the kernel sits
// behind the same gate: integer payoffs with max|payoff|·rounds ≤ 2^53
// (exactSums), under which the scalar loop's running sum and the closed
// form are the same exact integer.  Noise is handled by drawing each
// lane's per-round flips up front from that game's own rng.Source in
// canonical scalar order (two draws per round, focal player first) with
// rng.Source.BernoulliLane: the engine's noise level is
// precomputed as an integer threshold, and the lane draw keeps the
// generator state in registers and ORs the lane bit into the flip planes
// without branching.  The draws are exactly those of the scalar loop's
// Bernoulli calls, so the RNG streams — and therefore the trajectory of any
// caller — are unchanged.  Games the kernel cannot replay exactly (mixed
// strategies, payoff matrices outside the gate, players without packed
// move tables) fall back to the scalar Play path lane by lane.

// BatchLanes is the number of games one bit-sliced batch plays at once: one
// lane per bit of a uint64 word.  Engine.PlayBatch accepts any number of
// opponents and chunks internally, so callers only need the constant to
// size reusable result buffers.
const BatchLanes = bitvec.Lanes

// batchAutoMaxMemory is the largest memory depth at which KernelAuto routes
// eligible noisy batches through the SWAR kernel.  The multiplexer tree
// costs ~4^n word operations per round, so past memory-3 the scalar loop
// wins; KernelBatch overrides the bound for measurement.  Noiseless batches
// never take SWAR under KernelAuto: the cycle-closing walk is faster at
// every depth.
const batchAutoMaxMemory = 3

// KernelStats is a snapshot of how many games each kernel implementation
// has played since the engine was built.  Engines update the counters
// atomically, so snapshots are safe to take while games are in flight.
type KernelStats struct {
	// ScalarGames counts games replayed round by round by Engine.Play,
	// including cycle walks that reached the horizon before closing.
	ScalarGames int64
	// CycleGames counts games resolved by the cycle-closing closed form.
	CycleGames int64
	// BatchGames counts games played inside SWAR batches, and BatchCalls the
	// number of batches; together they give the mean lane occupancy.
	BatchGames int64
	BatchCalls int64
}

// BatchLaneOccupancy returns the mean fraction of the 64 lanes occupied per
// SWAR batch, or 0 if no batches ran.
func (s KernelStats) BatchLaneOccupancy() float64 {
	if s.BatchCalls == 0 {
		return 0
	}
	return float64(s.BatchGames) / float64(s.BatchCalls*BatchLanes)
}

// kernelCounters is the engine-internal mutable form of KernelStats.
type kernelCounters struct {
	scalarGames atomic.Int64
	cycleGames  atomic.Int64
	batchGames  atomic.Int64
	batchCalls  atomic.Int64
}

// KernelStats returns a snapshot of the engine's kernel-mix counters.
func (e *Engine) KernelStats() KernelStats {
	return KernelStats{
		ScalarGames: e.stats.scalarGames.Load(),
		CycleGames:  e.stats.cycleGames.Load(),
		BatchGames:  e.stats.batchGames.Load(),
		BatchCalls:  e.stats.batchCalls.Load(),
	}
}

// batchBuffers is the scratch state of one SWAR batch.  Engines keep them
// in a sync.Pool so the steady-state batch path allocates nothing; sizes
// depend only on the engine's memory depth and round count, which are fixed
// at construction.
type batchBuffers struct {
	focalT   []uint64    // transposed (or broadcast) focal tables, 4^n words
	oppT     []uint64    // transposed opponent tables: bit L of word s = lane L's move in state s
	scratch  []uint64    // multiplexer scratch, 4^n words (MuxSelect destroys its leaves)
	planes   []uint64    // focal joint-history planes: plane j = state bit j of every lane
	oppView  []uint64    // planes pair-swapped into the opponents' perspective
	counts   [3][]uint64 // vertical counters for outcome codes CC, CD, DC
	flipA    []uint64    // noise masks drawn up front, one word per round (nil when noiseless)
	flipB    []uint64
	focal    [BatchLanes][]uint64 // packed focal move table of each occupied lane
	words    [BatchLanes][]uint64 // packed opponent move table of each occupied lane
	lane2idx [BatchLanes]int      // occupied lane -> index into the chunk
}

func (e *Engine) getBatchBuffers() *batchBuffers {
	if buf, ok := e.batchPool.Get().(*batchBuffers); ok {
		return buf
	}
	numStates := NumStates(e.memSteps)
	buf := &batchBuffers{
		focalT:  make([]uint64, numStates),
		oppT:    make([]uint64, numStates),
		scratch: make([]uint64, numStates),
		planes:  make([]uint64, 2*e.memSteps),
		oppView: make([]uint64, 2*e.memSteps),
	}
	width := bitvec.CounterWidth(e.rounds)
	for c := range buf.counts {
		buf.counts[c] = make([]uint64, width)
	}
	if e.noise > 0 {
		buf.flipA = make([]uint64, e.rounds)
		buf.flipB = make([]uint64, e.rounds)
	}
	return buf
}

func (e *Engine) putBatchBuffers(buf *batchBuffers) {
	for l := range buf.words {
		buf.focal[l] = nil // do not pin strategy tables in the pool
		buf.words[l] = nil
	}
	e.batchPool.Put(buf)
}

// laneWords returns a player's packed move table when the engine's kernel
// mode and the game's parameters give its games a block kernel (the SWAR
// batch, or the cycle walk for noiseless batches under KernelAuto), and nil
// when they must take the scalar fallback.
func (e *Engine) laneWords(a Player) []uint64 {
	if !e.exact || !a.Deterministic() || a.MemorySteps() != e.memSteps {
		return nil
	}
	mt, ok := a.(MoveTable)
	if !ok {
		return nil
	}
	switch e.kernel {
	case KernelFullReplay:
		// The reference mode measures the original scalar loop; the batch API
		// stays available but plays every lane through Engine.Play.
		return nil
	case KernelAuto:
		if e.noise > 0 && e.memSteps > batchAutoMaxMemory {
			return nil
		}
	}
	return mt.Words()
}

// PlayBatch plays one game between a and every opponent, writing game i's
// outcome to out[i].  It is observably identical to calling Play(a,
// opponents[i], srcs[i]) in index order — same results bit for bit, same
// consumption of each source — but routes eligible games through a block
// kernel 64 games at a time when the kernel mode allows it: the
// cycle-closing walk for noiseless games under KernelAuto, the bit-sliced
// SWAR kernel otherwise (see KernelMode).  srcs may be nil for fully
// deterministic noiseless batches; otherwise it must hold one source per
// opponent (entries for deterministic games may be nil when noise is off).
// Opponent counts that are not a multiple of 64 are fine; the ragged tail
// simply occupies fewer lanes.
func (e *Engine) PlayBatch(a Player, opponents []Player, srcs []*rng.Source, out []Result) error {
	if a == nil {
		return fmt.Errorf("game: PlayBatch requires a focal player")
	}
	focal := [1]Player{a}
	return e.playLanes("PlayBatch", focal[:], opponents, srcs, out)
}

// PlayPairs plays one game between focals[i] and opps[i] for every i,
// writing its outcome to out[i].  It is PlayBatch with a focal player per
// game: observably identical to calling Play(focals[i], opps[i], srcs[i])
// in index order, with the same rules for srcs.
func (e *Engine) PlayPairs(focals, opps []Player, srcs []*rng.Source, out []Result) error {
	if len(focals) != len(opps) {
		return fmt.Errorf("game: PlayPairs got %d focal players for %d opponents", len(focals), len(opps))
	}
	return e.playLanes("PlayPairs", focals, opps, srcs, out)
}

// playLanes validates a batch and plays it one chunk of at most BatchLanes
// games at a time.  A single focal player is broadcast to every game.
func (e *Engine) playLanes(op string, focals, opps []Player, srcs []*rng.Source, out []Result) error {
	if len(out) != len(opps) {
		return fmt.Errorf("game: %s result slice has %d entries for %d opponents", op, len(out), len(opps))
	}
	if srcs != nil && len(srcs) != len(opps) {
		return fmt.Errorf("game: %s source slice has %d entries for %d opponents", op, len(srcs), len(opps))
	}
	for lo := 0; lo < len(opps); lo += BatchLanes {
		hi := min(lo+BatchLanes, len(opps))
		chunkFocals := focals
		if len(focals) > 1 {
			chunkFocals = focals[lo:hi]
		}
		var chunkSrcs []*rng.Source
		if srcs != nil {
			chunkSrcs = srcs[lo:hi]
		}
		if err := e.playChunk(op, chunkFocals, opps[lo:hi], chunkSrcs, out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// playChunk plays one chunk of at most BatchLanes games; focals holds one
// player per game or a single player for all of them.  A noiseless chunk
// under KernelAuto closes each eligible game's cycle with one kernel built
// for the whole chunk, writing its result in place: once the noise is off,
// the walk beats the SWAR kernel at every memory depth.  Otherwise eligible
// lanes are gathered and played bit-sliced.  Lanes neither kernel can play
// exactly fall back to the scalar Play path individually.
func (e *Engine) playChunk(op string, focals, opps []Player, srcs []*rng.Source, out []Result) error {
	var buf *batchBuffers
	cycles := e.kernel == KernelAuto && e.noise == 0
	var k cycleKernel
	if cycles {
		k = e.newCycleKernel()
	}
	var closed, open int64 // cycle-walk games, added to the counters once per chunk
	defer func() {
		if buf != nil {
			e.putBatchBuffers(buf)
		}
		if cycles {
			e.stats.cycleGames.Add(closed)
			e.stats.scalarGames.Add(open)
		}
	}()
	var aw []uint64
	shared := true // every occupied lane has the same focal table
	lanes := 0
	for i, b := range opps {
		a := focals[0]
		if len(focals) > 1 {
			a = focals[i]
		}
		if a == nil || b == nil {
			return fmt.Errorf("game: %s got a nil player", op)
		}
		if i == 0 || len(focals) > 1 {
			aw = e.laneWords(a)
		}
		var bw []uint64
		if aw != nil {
			bw = e.laneWords(b)
		}
		if bw != nil && e.noise > 0 && (srcs == nil || srcs[i] == nil) {
			return fmt.Errorf("game: rng source required (noise=%v, deterministic=%v/%v)",
				e.noise, a.Deterministic(), b.Deterministic())
		}
		if bw == nil {
			var src *rng.Source
			if srcs != nil {
				src = srcs[i]
			}
			res, err := e.Play(a, b, src)
			if err != nil {
				return err
			}
			out[i] = res
			continue
		}
		if cycles {
			k.wa, k.wb = aw, bw
			if k.play(e.rounds, &out[i]) {
				closed++
			} else {
				open++
			}
			continue
		}
		if buf == nil {
			buf = e.getBatchBuffers()
		}
		if lanes > 0 && &aw[0] != &buf.focal[0][0] {
			shared = false
		}
		buf.focal[lanes] = aw
		buf.words[lanes] = bw
		buf.lane2idx[lanes] = i
		lanes++
	}
	if buf == nil {
		return nil
	}

	numStates := NumStates(e.memSteps)
	focalT := buf.focalT[:numStates]
	if shared {
		aw = buf.focal[0]
		for s := range focalT {
			focalT[s] = bitvec.Broadcast(aw[s>>6]>>(uint(s)&63)&1 == 1)
		}
	} else {
		transposeTables(focalT, buf.focal[:lanes])
	}
	oppT := buf.oppT[:numStates]
	transposeTables(oppT, buf.words[:lanes])

	// Draw the noise flips up front in canonical scalar order: each lane
	// consumes its own source exactly as the scalar loop would — two draws
	// per round, focal player's flip first — so the streams stay aligned
	// with full replay.
	noisy := e.noise > 0
	if noisy {
		clear(buf.flipA)
		clear(buf.flipB)
		for l := 0; l < lanes; l++ {
			srcs[buf.lane2idx[l]].BernoulliLane(e.flip, uint64(1)<<uint(l), buf.flipA, buf.flipB)
		}
	}

	planes := buf.planes
	clear(planes) // InitialState: empty history in every lane
	for c := range buf.counts {
		clear(buf.counts[c])
	}
	scratch := buf.scratch[:numStates]
	oppView := buf.oppView
	for r := 0; r < e.rounds; r++ {
		copy(scratch, focalT)
		moveA := bitvec.MuxSelect(scratch, planes)
		// An opponent's own state is the focal state with each round's
		// (my, opp) bit pair swapped, so its selector planes are the focal
		// planes at index j^1.
		for j := range oppView {
			oppView[j] = planes[j^1]
		}
		copy(scratch, oppT)
		moveB := bitvec.MuxSelect(scratch, oppView)
		if noisy {
			moveA ^= buf.flipA[r]
			moveB ^= buf.flipB[r]
		}
		// Count outcome codes CC, CD, DC per lane; DD follows from the round
		// count at extraction time.
		bitvec.CounterAdd(buf.counts[0], ^(moveA | moveB))
		bitvec.CounterAdd(buf.counts[1], ^moveA&moveB)
		bitvec.CounterAdd(buf.counts[2], moveA&^moveB)
		// state = ((state << 2) | my<<1 | opp) & mask, sliced: shift the
		// planes up a round and insert the new pair; the oldest round falls
		// off the end of the slice.
		for j := len(planes) - 1; j >= 2; j-- {
			planes[j] = planes[j-2]
		}
		planes[1] = moveA
		planes[0] = moveB
	}

	for l := 0; l < lanes; l++ {
		var n [4]int
		for c := range buf.counts {
			n[c] = bitvec.CounterLane(buf.counts[c], l)
		}
		n[3] = e.rounds - n[0] - n[1] - n[2]
		totals(&out[buf.lane2idx[l]], &e.table, &n)
	}
	e.stats.batchGames.Add(int64(lanes))
	e.stats.batchCalls.Add(1)
	return nil
}

// transposeTables writes the lanes' packed move tables bit-sliced into dst:
// bit L of dst[s] is table L's move in state s.
func transposeTables(dst []uint64, tables [][]uint64) {
	clear(dst)
	for l, w := range tables {
		for s := range dst {
			dst[s] |= (w[s>>6] >> (uint(s) & 63) & 1) << uint(l)
		}
	}
}
