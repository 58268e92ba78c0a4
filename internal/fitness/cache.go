package fitness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/strategy"
)

// maxCacheBytes bounds the approximate memory a PairCache retains for
// memoized results.  Long runs with high mutation rates generate an
// unbounded stream of distinct strategies; once a shard reaches its slice
// of the budget, a bounded fraction of its entries is evicted (see
// cacheShard.evict), which at worst replays pairs that are still live —
// results are pure functions of the pair, so correctness is unaffected.
const maxCacheBytes = 64 << 20

// numShards is the number of independently locked segments of the pair
// store.  Mirrored keys (a,b) and (b,a) hash to the same shard, so the
// mirrored-pair invariant is maintained under one lock.
const numShards = 64

// evictDivisor is the fraction of a full shard evicted in one pass (one
// quarter), so an overflow sheds bounded weight instead of discarding every
// hot pair at once.
const evictDivisor = 4

// cacheShard is one lock-scoped segment of the pair store.  Reads take the
// read lock only, so cache hits from concurrent worker goroutines do not
// serialise on each other.
type cacheShard struct {
	mu      sync.RWMutex
	entries map[uint64]game.Result
}

// evict removes roughly a quarter of the shard's entries, always deleting a
// key together with its mirror so the mirrored-pair invariant survives
// eviction.  Victims are the numerically smallest keys — interned IDs are
// dense and issued in first-seen order, so low keys belong to the oldest
// strategies, the ones most likely extinct — selected by sorting rather
// than map iteration so that which pairs later replay (and therefore the
// reported play counts) stays deterministic for a given seed.  Called with
// the shard's write lock held.
func (sh *cacheShard) evict() int {
	quota := len(sh.entries) / evictDivisor
	if quota < 1 {
		quota = 1
	}
	keys := make([]uint64, 0, len(sh.entries))
	for k := range sh.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	removed := 0
	for _, k := range keys {
		if _, ok := sh.entries[k]; !ok {
			continue // already removed as an earlier victim's mirror
		}
		delete(sh.entries, k)
		removed++
		if m := mirrorKey(k); m != k {
			if _, ok := sh.entries[m]; ok {
				delete(sh.entries, m)
				removed++
			}
		}
		if removed >= quota {
			break
		}
	}
	return removed
}

// pairKey packs an ordered ID pair into the store's map key.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// mirrorKey returns the key of the reversed pair.
func mirrorKey(k uint64) uint64 { return k<<32 | k>>32 }

// shardIndex maps an ID pair to its shard.  The hash is computed over the
// unordered pair so (a,b) and (b,a) — whose results mirror each other and
// are stored together — land in the same shard.
func shardIndex(a, b uint32) int {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := uint64(lo)<<32 | uint64(hi)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h & (numShards - 1))
}

// pairStore is the shareable state behind one or more PairCache views: the
// sharded result table, the interning registry issuing the dense IDs the
// table is keyed by, and the game identity every memoized result belongs
// to.  All of it is safe for concurrent use — shards are RWMutex-locked and
// the registry locks internally — so independent runs (ensemble replicates)
// may warm a single store concurrently through their own views.
type pairStore struct {
	gameID      string
	memorySteps int
	maxPerShard int
	reg         *intern.Registry

	shards [numShards]cacheShard
}

// compatible reports whether results memoized in this store are valid for
// games played by eng.  The game ID covers the payoff spec and round count;
// memory depth is checked separately because the ID does not encode it, and
// noise must be zero because noisy results are not pure functions of the
// pair.  Kernel mode deliberately does not participate: every kernel is
// bit-identical on the deterministic noiseless path, so views over the same
// store may mix them.
func (st *pairStore) compatible(eng *game.Engine) error {
	if eng == nil {
		return fmt.Errorf("fitness: nil engine")
	}
	if eng.Noise() > 0 {
		return fmt.Errorf("fitness: shared cache requires a noiseless engine, got noise=%v", eng.Noise())
	}
	if got := eng.GameID(); got != st.gameID {
		return fmt.Errorf("fitness: shared cache is bound to game %q, engine plays %q", st.gameID, got)
	}
	if got := eng.MemorySteps(); got != st.memorySteps {
		return fmt.Errorf("fitness: shared cache is bound to memory-%d strategies, engine expects memory-%d", st.memorySteps, got)
	}
	return nil
}

// PairCache memoizes game results per distinct strategy pair, keyed by the
// dense IDs of an intern.Registry rather than encoded strategy strings, so
// the hot lookup path is integer arithmetic with no allocations.  The store
// is sharded by unordered ID pair: hits take only a shard read lock and the
// counters are atomics, so the worker goroutines of one rank do not
// serialise on each other.  Results are pure functions of the pair; racing
// workers at worst replay a pair once each and store the identical result
// (counted once, keeping the play counter deterministic for a given seed).
//
// A PairCache is a view: the result table and registry live in a pairStore
// that additional views may share (see NewView), while the engine used to
// play misses and the hit/miss/eviction counters are per view.  A solo run
// owns a private store; ensemble replicates each hold their own view over
// one shared store, so kernel statistics and cache counters stay attributed
// to the run that incurred them while results warmed by any replicate serve
// all of them.
type PairCache struct {
	eng   *game.Engine
	store *pairStore

	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

// NewPairCache returns an empty cache bound to the given engine, with a
// fresh strategy-interning registry (see Interner) and a private store.
func NewPairCache(eng *game.Engine) (*PairCache, error) {
	if eng == nil {
		return nil, fmt.Errorf("fitness: nil engine")
	}
	// Size the per-shard entry budget from the per-entry footprint: the
	// uint64 key, the stored result and map overhead.
	const entryBytes = 64
	maxPerShard := maxCacheBytes / entryBytes / numShards
	if maxPerShard < 64 {
		maxPerShard = 64
	}
	st := &pairStore{
		gameID:      eng.GameID(),
		memorySteps: eng.MemorySteps(),
		maxPerShard: maxPerShard,
		reg:         intern.NewRegistry(),
	}
	for i := range st.shards {
		st.shards[i].entries = make(map[uint64]game.Result)
	}
	return &PairCache{eng: eng, store: st}, nil
}

// NewView returns a fresh view over this cache's underlying store, bound to
// the given engine: lookups hit the same memoized results and the same
// interning registry, but misses are played through eng (so its kernel
// statistics account for them) and the new view's counters start at zero.
// The engine must play the identical deterministic game — same game ID,
// same memory depth, noiseless — or an error is returned; results from a
// different game must never be served across views.
func (c *PairCache) NewView(eng *game.Engine) (*PairCache, error) {
	if err := c.store.compatible(eng); err != nil {
		return nil, err
	}
	return &PairCache{eng: eng, store: c.store}, nil
}

// CacheUsable reports whether the cache-validity conditions hold for a
// whole run over the given strategy table: a noiseless engine and an
// all-deterministic table of codec-encodable strategies (so every entry can
// be interned).  Learning only copies strategies and the mutation operator
// only generates pure ones, so a table that starts deterministic stays
// deterministic.  NewEvaluator applies it once at setup, which is how both
// engines decide whether to route evaluation through the subsystem or fall
// back to their full paths.
func CacheUsable(eng *game.Engine, table []strategy.Strategy) bool {
	if eng == nil || eng.Noise() > 0 {
		return false
	}
	for _, s := range table {
		if s == nil || !s.Deterministic() || !strategy.Encodable(s) {
			return false
		}
	}
	return true
}

// Engine returns the engine the cache plays games with.
func (c *PairCache) Engine() *game.Engine { return c.eng }

// GameID returns the canonical identity of the game every memoized result
// belongs to.  A store is bound to one game (and every view's engine is
// checked against it), so results cannot leak between scenarios by
// construction.
func (c *PairCache) GameID() string { return c.store.gameID }

// Interner returns the registry issuing the dense strategy IDs PlayID
// accepts.  An Evaluator interns its strategy table through it once per
// strategy-change event, so the per-game path never touches the codec.
// Views over one store share one registry, so an ID issued to any view is
// valid in all of them.
func (c *PairCache) Interner() *intern.Registry { return c.store.reg }

// DeltaExact reports whether the IncrementalMatrix's delta updates are
// bit-exact for the engine's game: with an integer-valued payoff matrix
// every fitness sum is an exactly-representable integer, so subtracting and
// re-adding pair payoffs reproduces a fresh evaluation bit for bit.
// EffectiveMode downgrades EvalIncremental to EvalCached when this fails (for
// example a generic 2x2 game with fractional payoffs), preserving the
// all-modes-identical guarantee.  It checks integrality only, so it
// assumes every row sum stays within 2^53; a matrix large enough to break
// that is not caught (the game kernels' gate bounds per-game totals).
func DeltaExact(eng *game.Engine) bool {
	return eng != nil && eng.Payoff().IntegerValued()
}

// EffectiveMode returns the evaluation mode an engine should actually run
// for the requested mode: EvalIncremental downgrades to EvalCached when the
// engine's game cannot guarantee bit-exact delta updates (see DeltaExact).
// NewEvaluator resolves every engine's mode through this single gate, so a
// new cache-validity condition cannot be applied to one engine and missed
// in the other.
func EffectiveMode(eng *game.Engine, mode EvalMode) EvalMode {
	if mode == EvalIncremental && !DeltaExact(eng) {
		return EvalCached
	}
	return mode
}

// swap returns the result seen from the opposite side of the board.
func swap(r game.Result) game.Result {
	return game.Result{
		FitnessA:      r.FitnessB,
		FitnessB:      r.FitnessA,
		CooperationsA: r.CooperationsB,
		CooperationsB: r.CooperationsA,
		Rounds:        r.Rounds,
	}
}

// PlayID returns the result of a game between the strategies behind the
// given interned IDs (issued by this cache's Interner).  The pair is played
// at most once and served from memory afterwards; storing a result also
// stores the mirrored result for the reversed pair.  The hit path performs
// no allocations and takes only a shard read lock.
func (c *PairCache) PlayID(a, b uint32) (game.Result, error) {
	key := pairKey(a, b)
	sh := &c.store.shards[shardIndex(a, b)]
	sh.mu.RLock()
	res, ok := sh.entries[key]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return res, nil
	}

	sa, err := c.store.reg.Strategy(a)
	if err != nil {
		return game.Result{}, fmt.Errorf("fitness: %w", err)
	}
	sb, err := c.store.reg.Strategy(b)
	if err != nil {
		return game.Result{}, fmt.Errorf("fitness: %w", err)
	}
	// Deterministic, noiseless game: no source needed.  Played outside the
	// lock so concurrent workers are not serialised on the kernel.
	res, err = c.eng.Play(sa, sb, nil)
	if err != nil {
		return game.Result{}, err
	}

	sh.mu.Lock()
	// Count the play only when this call actually stores the entry: two
	// workers racing on the same uncached pair replay the identical game,
	// and counting it once keeps the reported game totals deterministic for
	// a given seed regardless of scheduling.
	if _, ok := sh.entries[key]; !ok {
		c.misses.Add(1)
		if len(sh.entries) >= c.store.maxPerShard {
			c.evicted.Add(int64(sh.evict()))
		}
		sh.entries[key] = res
		if mk := mirrorKey(key); mk != key {
			sh.entries[mk] = swap(res)
		}
	}
	sh.mu.Unlock()
	return res, nil
}

// PlayIDBatch fills out[i] with the result of the game between the
// strategies behind IDs a and bs[i], for every i.  Results, the games
// actually executed and the stored entries are identical to calling
// PlayID(a, bs[i]) in index order, but the misses are deduplicated (in
// first-encounter order) and played through the engine's batch kernel, 64
// games per focal strategy at a time, instead of one by one.  (A duplicate
// of an uncached ID within one call joins the batch probe instead of
// counting as a hit, so only the hit counter can differ from the serial
// sequence.)  The all-hits steady state allocates nothing.
func (c *PairCache) PlayIDBatch(a uint32, bs []uint32, out []game.Result) error {
	if len(out) != len(bs) {
		return fmt.Errorf("fitness: PlayIDBatch result slice has %d entries for %d opponents", len(out), len(bs))
	}
	var missIdx []int
	for i, b := range bs {
		key := pairKey(a, b)
		sh := &c.store.shards[shardIndex(a, b)]
		sh.mu.RLock()
		res, ok := sh.entries[key]
		sh.mu.RUnlock()
		if ok {
			out[i] = res
		} else {
			missIdx = append(missIdx, i)
		}
	}
	c.hits.Add(int64(len(bs) - len(missIdx)))
	if len(missIdx) == 0 {
		return nil
	}

	sa, err := c.store.reg.Strategy(a)
	if err != nil {
		return fmt.Errorf("fitness: %w", err)
	}
	pos := make(map[uint32]int, len(missIdx))
	order := make([]uint32, 0, len(missIdx))
	players := make([]game.Player, 0, len(missIdx))
	for _, i := range missIdx {
		b := bs[i]
		if _, ok := pos[b]; ok {
			continue
		}
		sb, err := c.store.reg.Strategy(b)
		if err != nil {
			return fmt.Errorf("fitness: %w", err)
		}
		pos[b] = len(order)
		order = append(order, b)
		players = append(players, sb)
	}
	// Deterministic, noiseless games: no sources needed.  Played outside the
	// locks so concurrent workers are not serialised on the kernel.
	results := make([]game.Result, len(order))
	if err := c.eng.PlayBatch(sa, players, nil, results); err != nil {
		return err
	}
	for k, b := range order {
		key := pairKey(a, b)
		sh := &c.store.shards[shardIndex(a, b)]
		sh.mu.Lock()
		// Count-once semantics as in PlayID: a racing worker that stored the
		// pair first wins, and its (identical) result is what callers see.
		if stored, ok := sh.entries[key]; ok {
			results[k] = stored
		} else {
			c.misses.Add(1)
			if len(sh.entries) >= c.store.maxPerShard {
				c.evicted.Add(int64(sh.evict()))
			}
			sh.entries[key] = results[k]
			if mk := mirrorKey(key); mk != key {
				sh.entries[mk] = swap(results[k])
			}
		}
		sh.mu.Unlock()
	}
	for _, i := range missIdx {
		out[i] = results[pos[bs[i]]]
	}
	return nil
}

// Plays returns the number of games actually executed by the engine through
// this cache: the misses.  This is the quantity the engines report as "games
// played".
func (c *PairCache) Plays() int64 { return c.misses.Load() }

// Hits returns the number of lookups served from memory.
func (c *PairCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cacheable lookups that executed the game
// kernel and stored its result.
func (c *PairCache) Misses() int64 { return c.misses.Load() }

// Evicted returns the number of memoized entries this view dropped by
// bounded eviction after a shard reached its memory budget.
func (c *PairCache) Evicted() int64 { return c.evicted.Load() }

// Len returns the number of memoized ordered pairs in the underlying store
// (shared across views).
func (c *PairCache) Len() int {
	total := 0
	for i := range c.store.shards {
		sh := &c.store.shards[i]
		sh.mu.RLock()
		total += len(sh.entries)
		sh.mu.RUnlock()
	}
	return total
}
