package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from the same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds agree on %d/100 outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(42)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(8)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestBoolProbabilities(t *testing.T) {
	s := New(5)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if s.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !s.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit fraction %v, want ~0.3", frac)
	}
}

func TestCoinBalance(t *testing.T) {
	s := New(11)
	const n = 100000
	heads := 0
	for i := 0; i < n; i++ {
		if s.Coin() {
			heads++
		}
	}
	frac := float64(heads) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("Coin fraction %v, want ~0.5", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1234)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams agree on %d/1000 outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1 := New(77)
	p2 := New(77)
	c1 := p1.Split()
	c2 := p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children from identical parents diverged at %d", i)
		}
	}
}

func TestSplitN(t *testing.T) {
	parent := New(55)
	kids := parent.SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN(8) returned %d children", len(kids))
	}
	// All children should produce distinct first outputs.
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatalf("two children produced identical first output %d", v)
		}
		seen[v] = true
	}
}

func TestPerm(t *testing.T) {
	s := New(2)
	for _, n := range []int{0, 1, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shuffle(-1) did not panic")
		}
	}()
	New(1).Shuffle(-1, func(i, j int) {})
}

func TestPair(t *testing.T) {
	s := New(9)
	if _, _, err := s.Pair(1); err == nil {
		t.Fatal("Pair(1) should error")
	}
	for i := 0; i < 10000; i++ {
		a, b, err := s.Pair(10)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("Pair returned identical indices %d", a)
		}
		if a < 0 || a >= 10 || b < 0 || b >= 10 {
			t.Fatalf("Pair returned out-of-range indices %d, %d", a, b)
		}
	}
}

func TestPairCoversAllPairs(t *testing.T) {
	s := New(10)
	seen := map[[2]int]bool{}
	for i := 0; i < 20000; i++ {
		a, b, _ := s.Pair(4)
		seen[[2]int{a, b}] = true
	}
	// 4*3 ordered distinct pairs.
	if len(seen) != 12 {
		t.Fatalf("Pair(4) covered %d ordered pairs, want 12", len(seen))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(21)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(22)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.03 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := New(31)
	s.Uint64()
	s.Uint64()
	saved := s.State()
	want := make([]uint64, 10)
	for i := range want {
		want[i] = s.Uint64()
	}
	var restored Source
	if err := restored.SetState(saved); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := restored.Uint64(); got != want[i] {
			t.Fatalf("restored stream output %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	var s Source
	if err := s.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
}

func TestJumpChangesState(t *testing.T) {
	a := New(17)
	b := New(17)
	b.Jump()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped stream agrees with original on %d/1000 outputs", same)
	}
}

func TestFillUint64(t *testing.T) {
	s := New(13)
	buf := make([]uint64, 64)
	s.FillUint64(buf)
	zero := 0
	for _, v := range buf {
		if v == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("FillUint64 produced %d zero words out of 64", zero)
	}
}

// Property: Intn(n) always lies in [0, n) for any positive n and any seed.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical streams (determinism for any seed).
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pair never returns equal indices.
func TestQuickPairDistinct(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 2
		s := New(seed)
		a, b, err := s.Pair(bound)
		return err == nil && a != b && a >= 0 && a < bound && b >= 0 && b < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(4096)
	}
}

// TestMarshalBinaryRoundTrip holds the checkpoint export path to its
// contract: a source restored from MarshalBinary bytes continues the
// original stream exactly, and the original is not disturbed by marshaling.
func TestMarshalBinaryRoundTrip(t *testing.T) {
	src := New(2013)
	for i := 0; i < 100; i++ {
		src.Uint64()
	}
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 32 {
		t.Fatalf("marshaled state is %d bytes, want 32", len(data))
	}
	restored := New(1)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), restored.Uint64(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %d vs %d", i, b, a)
		}
	}
}

// TestUnmarshalBinaryRejectsInvalid covers the malformed-input paths: wrong
// length and the all-zero (xoshiro-invalid) state.
func TestUnmarshalBinaryRejectsInvalid(t *testing.T) {
	src := New(1)
	if err := src.UnmarshalBinary(make([]byte, 31)); err == nil {
		t.Error("accepted a 31-byte state")
	}
	if err := src.UnmarshalBinary(make([]byte, 33)); err == nil {
		t.Error("accepted a 33-byte state")
	}
	if err := src.UnmarshalBinary(make([]byte, 32)); err == nil {
		t.Error("accepted the all-zero state")
	}
	// The source must still work after rejected restores.
	src.Uint64()
}

// checkBernoulliLane asserts that BernoulliLane sets exactly the bits the
// canonical Bool sequence fires — focal flip first, two draws per round —
// and leaves the source in the same state.
func checkBernoulliLane(t *testing.T, seed uint64, p float64, rounds int) {
	t.Helper()
	ref, got := New(seed), New(seed)
	const bit = uint64(1) << 37
	flipA, flipB := make([]uint64, rounds), make([]uint64, rounds)
	got.BernoulliLane(NewBernoulli(p), bit, flipA, flipB)
	for r := 0; r < rounds; r++ {
		for side, plane := range [2][]uint64{flipA, flipB} {
			want := ref.Bool(p)
			if plane[r] != 0 && plane[r] != bit {
				t.Fatalf("p=%v round %d side %d: stray bits %#x", p, r, side, plane[r])
			}
			if (plane[r] == bit) != want {
				t.Fatalf("p=%v round %d side %d: lane draw %v, Bool %v", p, r, side, plane[r] == bit, want)
			}
		}
	}
	if ref.State() != got.State() {
		t.Fatalf("p=%v rounds=%d: source state %x after lane draw, %x after Bool", p, rounds, got.State(), ref.State())
	}
	// The scalar form must agree too, draw for draw.
	ref, got = New(seed), New(seed)
	b := NewBernoulli(p)
	for i := 0; i < 2*rounds; i++ {
		if g, w := got.Bernoulli(b), ref.Bool(p); g != w {
			t.Fatalf("p=%v draw %d: Bernoulli %v, Bool %v", p, i, g, w)
		}
	}
	if ref.State() != got.State() {
		t.Fatalf("p=%v: source state diverged after %d scalar draws", p, 2*rounds)
	}
}

// TestBernoulliMatchesBool pins the integer-threshold draws to Bool across
// the probabilities the engine meets, the extremes of (0,1), and the
// clamped cases that draw nothing.
func TestBernoulliMatchesBool(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-300, 1e-9, 0.05, 1.0 / 3, 0.5, 1 - 0x1p-53, 1, 2} {
		for _, rounds := range []int{0, 1, 200} {
			checkBernoulliLane(t, 2013+uint64(rounds), p, rounds)
		}
	}
}

// inverse returns the multiplicative inverse of an odd a modulo 2⁶⁴
// (Newton's iteration; each step doubles the correct low bits).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// sourceYielding returns a source whose next two Uint64 outputs are first
// and second.  xoshiro256**'s output is rotl(s1·5, 7)·9, which inverts to
// s1, and one step turns s1 into s1^s2^s0, so s2 fixes the second output.
func sourceYielding(first, second uint64) *Source {
	s1of := func(u uint64) uint64 { return bits.RotateLeft64(u*inverse(9), -7) * inverse(5) }
	s0, s1 := uint64(0x243F6A8885A308D3), s1of(first)
	s2 := s1of(second) ^ s1 ^ s0
	src := &Source{}
	if err := src.SetState([4]uint64{s0, s1, s2, 0x13198A2E03707344}); err != nil {
		panic(err)
	}
	return src
}

// TestBernoulliThresholdBoundary draws at k = thr-1, thr and thr+1 directly:
// sources are built to yield exactly those k (with every low bit set, the
// worst case for the >>11), and the lane draw's focal and opponent flips,
// the scalar Bernoulli and Bool must all agree with Float64's k/2⁵³ < p.
func TestBernoulliThresholdBoundary(t *testing.T) {
	for _, p := range []float64{1e-300, 1e-9, 0.05, 1.0 / 3, 0.5, 1 - 0x1p-53} {
		b := NewBernoulli(p)
		if b.thr < 1 || b.thr >= 1<<53 {
			t.Fatalf("p=%v: threshold %d outside [1, 2⁵³)", p, b.thr)
		}
		for _, kA := range []uint64{b.thr - 1, b.thr, b.thr + 1} {
			for _, kB := range []uint64{b.thr - 1, b.thr, b.thr + 1} {
				if kA >= 1<<53 || kB >= 1<<53 {
					continue
				}
				uA, uB := kA<<11|0x7FF, kB<<11|0x7FF
				if got := sourceYielding(uA, uB); got.Uint64() != uA || got.Uint64() != uB {
					t.Fatal("sourceYielding does not yield the requested outputs")
				}
				wantA, wantB := float64(kA)/(1<<53) < p, float64(kB)/(1<<53) < p
				ref := sourceYielding(uA, uB)
				if ref.Bool(p) != wantA || ref.Bool(p) != wantB {
					t.Fatalf("p=%v k=(%d,%d): Bool disagrees with Float64", p, kA, kB)
				}
				scalar := sourceYielding(uA, uB)
				if scalar.Bernoulli(b) != wantA || scalar.Bernoulli(b) != wantB {
					t.Fatalf("p=%v k=(%d,%d): Bernoulli disagrees with Float64", p, kA, kB)
				}
				var flipA, flipB [1]uint64
				sourceYielding(uA, uB).BernoulliLane(b, 1, flipA[:], flipB[:])
				if (flipA[0] == 1) != wantA || (flipB[0] == 1) != wantB {
					t.Fatalf("p=%v k=(%d,%d): lane draw (%d,%d), want (%v,%v)", p, kA, kB, flipA[0], flipB[0], wantA, wantB)
				}
			}
		}
	}
}

// FuzzBernoulliThreshold asserts the lane-draw/Bool equivalence for
// arbitrary seeds, probabilities and round counts.
func FuzzBernoulliThreshold(f *testing.F) {
	f.Add(uint64(2013), 0.05, uint16(200))
	f.Add(uint64(1), 1e-300, uint16(1))
	f.Add(uint64(7), 1-0x1p-53, uint16(64))
	f.Add(uint64(0), 1.0, uint16(3))
	f.Fuzz(func(t *testing.T, seed uint64, p float64, rounds uint16) {
		if math.IsNaN(p) {
			return // documented: NaN never fires and draws nothing, unlike Bool
		}
		checkBernoulliLane(t, seed, p, int(rounds%1024))
	})
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	a, b := New(99), New(99)
	var dst Source
	for i := 0; i < 5; i++ {
		child := a.Split()
		b.SplitInto(&dst)
		if child.State() != dst.State() || a.State() != b.State() {
			t.Fatalf("split %d: SplitInto diverged from Split", i)
		}
	}
}

func BenchmarkBernoulliLane(b *testing.B) {
	s := New(1)
	bern := NewBernoulli(0.05)
	flipA, flipB := make([]uint64, 200), make([]uint64, 200)
	for i := 0; i < b.N; i++ {
		s.BernoulliLane(bern, 1, flipA, flipB)
	}
}
