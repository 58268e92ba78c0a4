package evogame

// BENCH_5.json through BENCH_9.json are frozen: their generators (the
// `benchtables -table kernel|batch|ensemble|artifact|faults -json` tables)
// were removed once perfbench/ became the repository benchmark, and the
// last commit carrying them is 7c9a684.  The files are never regenerated;
// the tests below keep pinning the schema and claims each one records.
//
// BENCH_5.json is the machine-readable baseline of the kernel table.  The
// numbers are a snapshot of the machine that produced them, so this test
// does not re-measure; it pins
// the schema the tooling consumes and the claim the baseline exists to
// document — the cycle-closing and cached pipeline levels beat the
// full-replay kernel by at least 5x on the S=512 memory-one workload, and
// the cached path runs allocation-free.

import (
	"encoding/json"
	"os"
	"testing"
)

// benchBaselineRow mirrors the row schema the removed kernel and batch
// generators emitted.
// The kernel table (BENCH_5.json) leaves the batch-table-only fields
// (noise, workers, batch_lane_occupancy) at their zero values.
type benchBaselineRow struct {
	SSets               int     `json:"ssets"`
	Mode                string  `json:"mode"`
	Noise               float64 `json:"noise"`
	Workers             int     `json:"workers"`
	Sweeps              int     `json:"sweeps"`
	Games               int64   `json:"games"`
	Seconds             float64 `json:"seconds"`
	NsPerGame           float64 `json:"ns_per_game"`
	SpeedupVsFullReplay float64 `json:"speedup_vs_full_replay"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	BatchLaneOccupancy  float64 `json:"batch_lane_occupancy"`
}

type benchBaselineDoc struct {
	Table       string             `json:"table"`
	Seed        uint64             `json:"seed"`
	Rounds      int                `json:"rounds"`
	MemorySteps int                `json:"memory_steps"`
	GoMaxProcs  int                `json:"go_max_procs"`
	Metrics     benchBaselineMet   `json:"metrics"`
	Rows        []benchBaselineRow `json:"rows"`
}

// benchBaselineMet mirrors the aggregate Metrics envelope the batch table
// emits (absent, and therefore zero, in the kernel table).
type benchBaselineMet struct {
	ScalarGames        int64   `json:"scalar_games"`
	CycleGames         int64   `json:"cycle_games"`
	BatchGames         int64   `json:"batch_games"`
	BatchCalls         int64   `json:"batch_calls"`
	BatchLaneOccupancy float64 `json:"batch_lane_occupancy"`
}

func TestBenchBaselineSchemaAndClaims(t *testing.T) {
	raw, err := os.ReadFile("BENCH_5.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchBaselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_5.json is not valid JSON for the kernel-table schema: %v", err)
	}
	if doc.Table != "kernel" || doc.Rounds != DefaultRounds || doc.MemorySteps != 1 {
		t.Fatalf("baseline header = (%q, rounds=%d, memory=%d), want (kernel, %d, 1)",
			doc.Table, doc.Rounds, doc.MemorySteps, DefaultRounds)
	}
	seen := make(map[[2]interface{}]benchBaselineRow)
	for _, row := range doc.Rows {
		if row.Games <= 0 || row.Seconds <= 0 || row.NsPerGame <= 0 {
			t.Errorf("row %+v has non-positive measurements", row)
		}
		seen[[2]interface{}{row.SSets, row.Mode}] = row
	}
	for _, ssets := range []int{32, 128, 512} {
		for _, mode := range []string{"full-replay", "cycle-closing", "cached"} {
			if _, ok := seen[[2]interface{}{ssets, mode}]; !ok {
				t.Errorf("baseline is missing the (S=%d, %s) row", ssets, mode)
			}
		}
	}
	// The acceptance claim the baseline documents: >=5x at S=512 for both
	// fast paths, with the cached path allocation-free.
	for _, mode := range []string{"cycle-closing", "cached"} {
		row, ok := seen[[2]interface{}{512, mode}]
		if !ok {
			continue
		}
		if row.SpeedupVsFullReplay < 5 {
			t.Errorf("baseline records %.1fx for (S=512, %s), want >= 5x", row.SpeedupVsFullReplay, mode)
		}
		if row.AllocsPerOp >= 0.01 {
			t.Errorf("baseline records %.3f allocs/game for (S=512, %s), want ~0", row.AllocsPerOp, mode)
		}
	}
}

// TestBenchBatchBaselineSchemaAndClaims pins BENCH_6.json, the committed
// baseline of the (removed) batch table: the
// bit-sliced SWAR kernel against the scalar full-replay loop on the
// block-of-opponents fitness workload, noiseless and noisy.  Like the
// kernel baseline it pins schema and claims, not absolute numbers.
func TestBenchBatchBaselineSchemaAndClaims(t *testing.T) {
	raw, err := os.ReadFile("BENCH_6.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchBaselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_6.json is not valid JSON for the batch-table schema: %v", err)
	}
	if doc.Table != "batch" || doc.Rounds != DefaultRounds || doc.MemorySteps != 1 {
		t.Fatalf("baseline header = (%q, rounds=%d, memory=%d), want (batch, %d, 1)",
			doc.Table, doc.Rounds, doc.MemorySteps, DefaultRounds)
	}
	if doc.Metrics.BatchGames <= 0 || doc.Metrics.BatchCalls <= 0 ||
		doc.Metrics.ScalarGames <= 0 || doc.Metrics.BatchLaneOccupancy <= 0 {
		t.Errorf("aggregate metrics envelope is empty: %+v", doc.Metrics)
	}
	// The workers dimension covers 1 and GOMAXPROCS of the recording
	// machine; on a single-CPU recorder the two collapse into one column.
	workerCounts := []int{1}
	if doc.GoMaxProcs > 1 {
		workerCounts = append(workerCounts, doc.GoMaxProcs)
	}
	type key struct {
		ssets   int
		mode    string
		noise   float64
		workers int
	}
	seen := make(map[key]benchBaselineRow)
	for _, row := range doc.Rows {
		if row.Games <= 0 || row.Seconds <= 0 || row.NsPerGame <= 0 {
			t.Errorf("row %+v has non-positive measurements", row)
		}
		if row.Mode == "batch" && row.BatchLaneOccupancy <= 0 {
			t.Errorf("batch row %+v never filled a SWAR lane", row)
		}
		seen[key{row.SSets, row.Mode, row.Noise, row.Workers}] = row
	}
	for _, ssets := range []int{32, 128, 512} {
		for _, noise := range []float64{0, 0.05} {
			for _, workers := range workerCounts {
				for _, mode := range []string{"full-replay", "batch"} {
					if _, ok := seen[key{ssets, mode, noise, workers}]; !ok {
						t.Errorf("baseline is missing the (S=%d, %s, noise=%v, workers=%d) row",
							ssets, mode, noise, workers)
					}
				}
			}
		}
	}
	// The acceptance claim the baseline documents: the SWAR kernel beats
	// scalar full replay by >=5x on the noiseless S=512 workload, without
	// allocating in the steady state.
	for _, workers := range workerCounts {
		row, ok := seen[key{512, "batch", 0, workers}]
		if !ok {
			continue
		}
		if row.SpeedupVsFullReplay < 5 {
			t.Errorf("baseline records %.1fx for (S=512, batch, noiseless, workers=%d), want >= 5x",
				row.SpeedupVsFullReplay, workers)
		}
		if row.AllocsPerOp >= 0.01 {
			t.Errorf("baseline records %.3f allocs/game for (S=512, batch, noiseless, workers=%d), want ~0",
				row.AllocsPerOp, workers)
		}
	}
}

// benchEnsembleRow mirrors the row schema of the removed ensemble table
// (BENCH_7.json).
type benchEnsembleRow struct {
	EnsembleWorkers int     `json:"ensemble_workers"`
	Cache           string  `json:"cache"`
	Replicates      int     `json:"replicates"`
	Seconds         float64 `json:"seconds"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	Games           int64   `json:"games"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	WarmHits        int64   `json:"warm_hits"`
	WarmMisses      int64   `json:"warm_misses"`
	WarmHitRate     float64 `json:"warm_hit_rate"`
}

// benchEnsembleDoc mirrors the ensemble table's envelope.
type benchEnsembleDoc struct {
	Table       string             `json:"table"`
	Seed        uint64             `json:"seed"`
	Rounds      int                `json:"rounds"`
	MemorySteps int                `json:"memory_steps"`
	SSets       int                `json:"ssets"`
	Replicates  int                `json:"replicates"`
	Generations int                `json:"generations"`
	GoMaxProcs  int                `json:"go_max_procs"`
	Rows        []benchEnsembleRow `json:"rows"`
}

// TestBenchEnsembleBaselineSchemaAndClaims pins BENCH_7.json, the committed
// baseline of the ensemble table: 8 replicates of a noiseless cached S=128
// run under the ensemble tier, shared vs private pair-cache store at every
// ensemble worker count in {1, 2, 4, 8}.  Like the other baselines it pins
// schema and claims, not absolute numbers: sharing the store makes the
// 8-replicate ensemble at 8 workers at least 3x faster than running the
// replicates serially with private caches, with cross-run cache hits from
// replicate 1 onward doing the work (the recording machine may have a
// single core, so the win must come from miss elimination, not
// parallelism).
func TestBenchEnsembleBaselineSchemaAndClaims(t *testing.T) {
	raw, err := os.ReadFile("BENCH_7.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchEnsembleDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_7.json is not valid JSON for the ensemble-table schema: %v", err)
	}
	if doc.Table != "ensemble" || doc.Rounds != DefaultRounds || doc.SSets != 128 || doc.Replicates != 8 {
		t.Fatalf("baseline header = (%q, rounds=%d, ssets=%d, replicates=%d), want (ensemble, %d, 128, 8)",
			doc.Table, doc.Rounds, doc.SSets, doc.Replicates, DefaultRounds)
	}
	if doc.MemorySteps <= 0 || doc.Generations <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header has non-positive dimensions: %+v", doc)
	}
	type key struct {
		workers int
		cache   string
	}
	seen := make(map[key]benchEnsembleRow)
	for _, row := range doc.Rows {
		if row.Seconds <= 0 || row.Games <= 0 || row.Replicates != doc.Replicates {
			t.Errorf("row %+v has non-positive measurements or a replicate mismatch", row)
		}
		if row.Cache == "shared" && row.WarmHits <= 0 {
			t.Errorf("shared row %+v records no cross-run cache hits", row)
		}
		seen[key{row.EnsembleWorkers, row.Cache}] = row
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cache := range []string{"shared", "private"} {
			if _, ok := seen[key{workers, cache}]; !ok {
				t.Errorf("baseline is missing the (workers=%d, %s) row", workers, cache)
			}
		}
	}
	// The acceptance claim the baseline documents: >=3x over serial
	// replicates at 8 ensemble workers with the shared store, which must be
	// eliminating misses the private runs pay for.
	shared8, okS := seen[key{8, "shared"}]
	private8, okP := seen[key{8, "private"}]
	if okS {
		if shared8.SpeedupVsSerial < 3 {
			t.Errorf("baseline records %.2fx for (workers=8, shared), want >= 3x over serial private replicates",
				shared8.SpeedupVsSerial)
		}
		if okP && shared8.WarmMisses >= private8.WarmMisses {
			t.Errorf("shared store eliminated no warm misses: shared=%d, private=%d",
				shared8.WarmMisses, private8.WarmMisses)
		}
	}
}

// benchArtifactRow mirrors the row schema of the removed artifact table
// (BENCH_8.json).
type benchArtifactRow struct {
	Phase        string  `json:"phase"`
	RunsExecuted int     `json:"runs_executed"`
	RunsSkipped  int     `json:"runs_skipped"`
	Seconds      float64 `json:"seconds"`
}

// benchArtifactDoc mirrors the artifact table's envelope.
type benchArtifactDoc struct {
	Table                string             `json:"table"`
	Artifact             string             `json:"artifact"`
	Grid                 string             `json:"grid"`
	TotalRuns            int                `json:"total_runs"`
	GoMaxProcs           int                `json:"go_max_procs"`
	RegeneratedIdentical bool               `json:"regenerated_identical"`
	Rows                 []benchArtifactRow `json:"rows"`
}

// TestBenchArtifactBaselineSchemaAndClaims pins BENCH_8.json, the committed
// baseline of the artifact table: the paperkit incremental runner
// regenerating one quick-grid artifact cold, warm and after deleting a
// single envelope.  The claims are structural, not timing thresholds: the
// cold phase executes every run, the warm phase executes none, the deletion
// re-executes exactly one, and the regenerated envelope is byte-identical
// to the deleted one — the property that makes the committed artifact
// tables regenerable.
func TestBenchArtifactBaselineSchemaAndClaims(t *testing.T) {
	raw, err := os.ReadFile("BENCH_8.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchArtifactDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_8.json is not valid JSON for the artifact-table schema: %v", err)
	}
	if doc.Table != "artifact" || doc.Grid != "quick" || doc.Artifact == "" {
		t.Fatalf("baseline header = (%q, artifact=%q, grid=%q), want (artifact, <name>, quick)",
			doc.Table, doc.Artifact, doc.Grid)
	}
	if doc.TotalRuns <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header has non-positive dimensions: %+v", doc)
	}
	if !doc.RegeneratedIdentical {
		t.Error("baseline records a regenerated envelope that differs from the deleted one")
	}
	rows := make(map[string]benchArtifactRow, len(doc.Rows))
	for _, row := range doc.Rows {
		if row.Seconds <= 0 || row.RunsExecuted+row.RunsSkipped != doc.TotalRuns {
			t.Errorf("row %+v has non-positive time or does not cover all %d runs", row, doc.TotalRuns)
		}
		rows[row.Phase] = row
	}
	for _, phase := range []string{"cold", "warm", "delete_one"} {
		if _, ok := rows[phase]; !ok {
			t.Fatalf("baseline is missing the %q phase", phase)
		}
	}
	if cold := rows["cold"]; cold.RunsExecuted != doc.TotalRuns {
		t.Errorf("cold phase executed %d of %d runs, want all", cold.RunsExecuted, doc.TotalRuns)
	}
	if warm := rows["warm"]; warm.RunsExecuted != 0 {
		t.Errorf("warm phase executed %d runs, want 0 (everything fresh)", warm.RunsExecuted)
	}
	if del := rows["delete_one"]; del.RunsExecuted != 1 {
		t.Errorf("delete_one phase executed %d runs, want exactly the deleted one", del.RunsExecuted)
	}
}

// benchFaultsDoc mirrors the removed faults table's envelope (BENCH_9.json).
type benchFaultsDoc struct {
	Table       string `json:"table"`
	Seed        uint64 `json:"seed"`
	Ranks       int    `json:"ranks"`
	SSets       int    `json:"ssets"`
	Generations int    `json:"generations"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Overhead    struct {
		BaselineSeconds  float64 `json:"baseline_seconds"`
		ArmedIdleSeconds float64 `json:"armed_idle_seconds"`
		OverheadRatio    float64 `json:"overhead_ratio"`
		Repeats          int     `json:"repeats"`
	} `json:"overhead"`
	Recovery []struct {
		Engine           string  `json:"engine"`
		Spec             string  `json:"spec"`
		SegmentEvery     int     `json:"segment_every"`
		Restarts         int     `json:"restarts"`
		FaultFreeSeconds float64 `json:"fault_free_seconds"`
		RecoveredSeconds float64 `json:"recovered_seconds"`
		RecoverySeconds  float64 `json:"recovery_seconds"`
	} `json:"recovery"`
}

// TestBenchFaultsBaselineSchemaAndClaims pins BENCH_9.json, the committed
// baseline of the faults table.  Like the other baselines it pins schema
// and claims, not absolute numbers: consulting an armed-but-idle fault
// injector on every send and fault-point costs at most 2% over the nil
// injector, and a supervised mid-run crash recovers on both engines with
// exactly one restart and non-zero recovery accounting.
func TestBenchFaultsBaselineSchemaAndClaims(t *testing.T) {
	raw, err := os.ReadFile("BENCH_9.json")
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	var doc benchFaultsDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("BENCH_9.json is not valid JSON for the faults-table schema: %v", err)
	}
	if doc.Table != "faults" || doc.Ranks < 2 || doc.SSets <= 0 || doc.Generations <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header = %+v, want table=faults with positive dimensions", doc)
	}
	ov := doc.Overhead
	if ov.BaselineSeconds <= 0 || ov.ArmedIdleSeconds <= 0 || ov.Repeats < 3 {
		t.Fatalf("overhead block %+v has non-positive measurements or too few repeats", ov)
	}
	if ov.OverheadRatio <= 0 || ov.OverheadRatio > 1.02 {
		t.Errorf("injector-off overhead ratio = %.4f, claim is <= 1.02 (2%%)", ov.OverheadRatio)
	}
	engines := map[string]bool{}
	for _, row := range doc.Recovery {
		engines[row.Engine] = true
		if row.Spec == "" || row.SegmentEvery <= 0 {
			t.Errorf("recovery row %+v is missing its fault spec or cadence", row)
		}
		if row.Restarts != 1 {
			t.Errorf("recovery row %q: %d restarts, want exactly 1 (one-shot crash)", row.Engine, row.Restarts)
		}
		if row.FaultFreeSeconds <= 0 || row.RecoveredSeconds <= 0 || row.RecoverySeconds <= 0 {
			t.Errorf("recovery row %q has non-positive timings: %+v", row.Engine, row)
		}
		if row.RecoverySeconds >= row.RecoveredSeconds {
			t.Errorf("recovery row %q: recovery accounting %.4fs exceeds the whole run %.4fs",
				row.Engine, row.RecoverySeconds, row.RecoveredSeconds)
		}
	}
	for _, engine := range []string{"serial", "parallel"} {
		if !engines[engine] {
			t.Errorf("baseline is missing the %q recovery row", engine)
		}
	}
}
