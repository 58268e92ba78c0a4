package game

import (
	"testing"
	"testing/quick"

	"evogame/internal/rng"
)

func TestNumStates(t *testing.T) {
	want := map[int]int{1: 4, 2: 16, 3: 64, 4: 256, 5: 1024, 6: 4096}
	for mem, n := range want {
		if got := NumStates(mem); got != n {
			t.Errorf("NumStates(%d) = %d, want %d", mem, got, n)
		}
	}
}

func TestNumStatesPanicsOutOfRange(t *testing.T) {
	for _, mem := range []int{0, -1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NumStates(%d) did not panic", mem)
				}
			}()
			NumStates(mem)
		}()
	}
}

func TestRoundCode(t *testing.T) {
	cases := []struct {
		my, opp Move
		want    int
	}{
		{Cooperate, Cooperate, 0},
		{Cooperate, Defect, 1},
		{Defect, Cooperate, 2},
		{Defect, Defect, 3},
	}
	for _, tc := range cases {
		if got := RoundCode(tc.my, tc.opp); got != tc.want {
			t.Errorf("RoundCode(%s,%s) = %d, want %d", tc.my, tc.opp, got, tc.want)
		}
	}
}

func TestStateTableMemoryOne(t *testing.T) {
	// Table II of the paper: memory-one has exactly 4 states covering CC,
	// CD, DC, DD.
	tab := NewStateTable(1)
	if tab.NumStates() != 4 {
		t.Fatalf("memory-one table has %d states, want 4", tab.NumStates())
	}
	for i := 0; i < 4; i++ {
		row := tab.Row(i)
		if len(row) != 1 || int(row[0]) != i {
			t.Errorf("row %d = %v, want single code %d", i, row, i)
		}
	}
}

func TestStateTableRowsMatchPackedCodes(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		tab := NewStateTable(mem)
		for i := 0; i < tab.NumStates(); i++ {
			row := tab.Row(i)
			packed := 0
			for r, code := range row {
				packed |= int(code) << (2 * uint(r))
			}
			if packed != i {
				t.Fatalf("memory-%d row %d packs to %d", mem, i, packed)
			}
		}
	}
}

func TestFindStateFindsEveryRow(t *testing.T) {
	tab := NewStateTable(2)
	for i := 0; i < tab.NumStates(); i++ {
		view := make([]uint8, 2)
		copy(view, tab.Row(i))
		if got := tab.FindState(view); got != i {
			t.Fatalf("FindState(row %d) = %d", i, got)
		}
	}
}

func TestFindStateBadViewLength(t *testing.T) {
	tab := NewStateTable(2)
	if got := tab.FindState([]uint8{0}); got != -1 {
		t.Fatalf("FindState with wrong view length returned %d, want -1", got)
	}
}

func TestHistoryInitialState(t *testing.T) {
	for mem := 1; mem <= MaxMemorySteps; mem++ {
		h := NewHistory(mem)
		if h.State() != InitialState {
			t.Errorf("memory-%d initial state = %d, want 0", mem, h.State())
		}
	}
}

func TestHistoryPushMemoryOne(t *testing.T) {
	h := NewHistory(1)
	h.Push(Defect, Cooperate)
	if h.State() != RoundCode(Defect, Cooperate) {
		t.Fatalf("state after (D,C) = %d, want %d", h.State(), RoundCode(Defect, Cooperate))
	}
	h.Push(Cooperate, Defect)
	if h.State() != RoundCode(Cooperate, Defect) {
		t.Fatalf("memory-one state did not forget older round: %d", h.State())
	}
}

func TestHistoryPushMemoryTwo(t *testing.T) {
	h := NewHistory(2)
	h.Push(Defect, Defect)    // round code 3
	h.Push(Cooperate, Defect) // round code 1, most recent
	// Most recent round occupies the low bits: state = 3<<2 | 1 = 13.
	if h.State() != 13 {
		t.Fatalf("state = %d, want 13", h.State())
	}
	view := h.View()
	if view[0] != 1 || view[1] != 3 {
		t.Fatalf("view = %v, want [1 3]", view)
	}
}

func TestHistoryReset(t *testing.T) {
	h := NewHistory(3)
	h.Push(Defect, Defect)
	h.Push(Defect, Cooperate)
	h.Reset()
	if h.State() != InitialState {
		t.Fatalf("state after Reset = %d", h.State())
	}
	for _, v := range h.View() {
		if v != 0 {
			t.Fatalf("view after Reset = %v", h.View())
		}
	}
}

func TestStateViaModesAgree(t *testing.T) {
	src := rng.New(42)
	for mem := 1; mem <= 4; mem++ {
		tab := NewStateTable(mem)
		h := NewHistory(mem)
		for step := 0; step < 200; step++ {
			rolling := h.StateVia(StateRolling, nil)
			linear := h.StateVia(StateLinearSearch, tab)
			if rolling != linear {
				t.Fatalf("memory-%d step %d: rolling=%d linear=%d", mem, step, rolling, linear)
			}
			h.Push(Move(src.Intn(2)), Move(src.Intn(2)))
		}
	}
}

func TestOpponentState(t *testing.T) {
	// Memory-one: my=D, opp=C (code 2) becomes my=C, opp=D (code 1) for the
	// opponent.
	if got := OpponentState(2, 1); got != 1 {
		t.Fatalf("OpponentState(2,1) = %d, want 1", got)
	}
	// Symmetric codes are fixed points.
	if got := OpponentState(0, 1); got != 0 {
		t.Fatalf("OpponentState(0,1) = %d, want 0", got)
	}
	if got := OpponentState(3, 1); got != 3 {
		t.Fatalf("OpponentState(3,1) = %d, want 3", got)
	}
}

func TestOpponentStateInvolution(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		for s := 0; s < NumStates(mem); s++ {
			if got := OpponentState(OpponentState(s, mem), mem); got != s {
				t.Fatalf("memory-%d: OpponentState is not an involution at state %d", mem, s)
			}
		}
	}
}

// TestHistoriesStayMirrored checks the invariant the cycle walk rests on:
// if A's history is pushed with (a,b) and B's with (b,a) every round, B's
// state is always A's with every round's pair swapped, both by
// OpponentState and by the walk's swapPairs.  It covers every memory depth,
// with random moves (trial 0) and with the moves of random move tables.
func TestHistoriesStayMirrored(t *testing.T) {
	src := rng.New(7)
	for mem := 1; mem <= MaxMemorySteps; mem++ {
		for trial := 0; trial < 8; trial++ {
			pa, pb := randomWordPlayer(mem, src), randomWordPlayer(mem, src)
			ha, hb := NewHistory(mem), NewHistory(mem)
			for step := 0; step <= DefaultRounds; step++ {
				sa, sb := ha.State(), hb.State()
				if sb != OpponentState(sa, mem) || sb != swapPairs(sa) {
					t.Fatalf("memory-%d trial %d step %d: views not mirrored: %s vs %s",
						mem, trial, step, StateString(sa, mem), StateString(sb, mem))
				}
				a, b := pa.Move(sa, nil), pb.Move(sb, nil)
				if trial == 0 {
					a, b = Move(src.Intn(2)), Move(src.Intn(2))
				}
				ha.Push(a, b)
				hb.Push(b, a)
			}
		}
	}
}

func TestStateString(t *testing.T) {
	// Memory-two state 13 = rounds [1,3]: older round DD then most recent CD.
	if got := StateString(13, 2); got != "DD|CD" {
		t.Fatalf("StateString(13,2) = %q, want \"DD|CD\"", got)
	}
	if got := StateString(0, 1); got != "CC" {
		t.Fatalf("StateString(0,1) = %q, want \"CC\"", got)
	}
}

func TestStateTableString(t *testing.T) {
	s := NewStateTable(1).String()
	if len(s) == 0 {
		t.Fatal("empty state table rendering")
	}
}

// TestZeroModesAreOptimized pins the zero-valued configuration to the
// optimized kernel: every engine built without naming a mode plays rolling
// state codes and look-up accumulation, and builds no state table.
func TestZeroModesAreOptimized(t *testing.T) {
	if StateMode(0) != StateRolling {
		t.Errorf("StateMode(0) = %v, want %v", StateMode(0), StateRolling)
	}
	if AccumMode(0) != AccumLookup {
		t.Errorf("AccumMode(0) = %v, want %v", AccumMode(0), AccumLookup)
	}
	e, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: MaxMemorySteps})
	if err != nil {
		t.Fatal(err)
	}
	if e.stateMode != StateRolling || e.accumMode != AccumLookup || e.states != nil {
		t.Errorf("zero-valued engine plays %v/%v (state table built: %v)", e.stateMode, e.accumMode, e.states != nil)
	}
}

func TestStateModeAccumModeStrings(t *testing.T) {
	if StateLinearSearch.String() != "linear-search" || StateRolling.String() != "rolling" {
		t.Fatal("StateMode.String incorrect")
	}
	if StateMode(99).String() == "" {
		t.Fatal("unknown StateMode should still render")
	}
	if AccumBranching.String() != "branching" || AccumLookup.String() != "lookup" {
		t.Fatal("AccumMode.String incorrect")
	}
	if AccumMode(99).String() == "" {
		t.Fatal("unknown AccumMode should still render")
	}
}

// Property: for any random play sequence the rolling state always equals the
// linear-search state (the optimization of Figure 3 does not change results).
func TestQuickRollingEqualsLinear(t *testing.T) {
	tables := map[int]*StateTable{}
	for mem := 1; mem <= 4; mem++ {
		tables[mem] = NewStateTable(mem)
	}
	f := func(seed uint64, memSel uint8, steps uint8) bool {
		mem := int(memSel%4) + 1
		src := rng.New(seed)
		h := NewHistory(mem)
		for i := 0; i < int(steps); i++ {
			h.Push(Move(src.Intn(2)), Move(src.Intn(2)))
			if h.StateVia(StateRolling, nil) != h.StateVia(StateLinearSearch, tables[mem]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: OpponentState is an involution and preserves the state range.
func TestQuickOpponentStateInvolution(t *testing.T) {
	f := func(stateSel uint16, memSel uint8) bool {
		mem := int(memSel%MaxMemorySteps) + 1
		s := int(stateSel) % NumStates(mem)
		o := OpponentState(s, mem)
		return o >= 0 && o < NumStates(mem) && OpponentState(o, mem) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistoryPushRolling(b *testing.B) {
	h := NewHistory(6)
	for i := 0; i < b.N; i++ {
		h.Push(Move(i&1), Move((i>>1)&1))
		_ = h.StateVia(StateRolling, nil)
	}
}

func BenchmarkFindStateLinearMemorySix(b *testing.B) {
	tab := NewStateTable(6)
	h := NewHistory(6)
	h.Push(Defect, Cooperate)
	h.Push(Cooperate, Defect)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.StateVia(StateLinearSearch, tab)
	}
}
