package evogame

// Smoke tests for the command-line programs and examples: every main under
// cmd/ and examples/ must build and complete a brief run.  This catches
// example drift (mains that no longer compile against the facade, or that
// fail at startup) in CI without paying for the full default workloads.

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"evogame/internal/checkpoint"
)

// smokeTargets lists every main package with the arguments of a brief run.
var smokeTargets = []struct {
	name string
	dir  string
	args []string
}{
	{"evogame-serial", "./cmd/evogame", []string{
		"-ssets", "12", "-agents", "2", "-rounds", "20", "-generations", "40",
		"-sample-every", "20", "-noise", "0", "-eval", "incremental", "-clusters", "2"}},
	{"evogame-parallel", "./cmd/evogame", []string{
		"-parallel", "-ranks", "3", "-ssets", "12", "-agents", "2", "-rounds", "20",
		"-generations", "20", "-noise", "0", "-eval", "cached"}},
	{"evogame-scenario", "./cmd/evogame", []string{
		"-game", "snowdrift", "-rule", "moran", "-ssets", "12", "-agents", "2",
		"-rounds", "20", "-generations", "40", "-noise", "0", "-eval", "incremental"}},
	{"evogame-topology", "./cmd/evogame", []string{
		"-topology", "torus:moore", "-ssets", "16", "-agents", "2", "-rounds", "20",
		"-generations", "40", "-noise", "0", "-eval", "incremental"}},
	{"benchtables", "./cmd/benchtables", []string{"-table", "4"}},
	{"quickstart", "./examples/quickstart", []string{"-ssets", "12", "-generations", "200"}},
	{"axelrod_tournament", "./examples/axelrod_tournament", nil},
	{"evogame-ensemble", "./cmd/evogame", []string{
		"-replicates", "3", "-ensemble-workers", "2", "-ssets", "12", "-agents", "2",
		"-rounds", "20", "-generations", "30", "-sample-every", "15", "-noise", "0",
		"-eval", "cached"}},
	{"memory_sweep", "./examples/memory_sweep", []string{"-quick"}},
	{"scaling_study", "./examples/scaling_study", []string{"-quick"}},
	{"evolint-list", "./cmd/evolint", []string{"-list"}},
	{"paperkit-list", "./cmd/paperkit", []string{"list"}},
	{"paperkit-status", "./cmd/paperkit", []string{"status", "-quick"}},
	// Verify re-renders the committed quick-grid tables from the committed
	// run envelopes and fails on any byte difference — the repository's own
	// regenerability gate, exercised on every push.
	{"paperkit-verify", "./cmd/paperkit", []string{"verify", "-quick"}},
	{"snowdrift", "./examples/snowdrift", []string{
		"-ssets", "16", "-generations", "400", "-seeds", "2"}},
	{"lattice_cooperation", "./examples/lattice_cooperation", []string{
		"-ssets", "16", "-generations", "400", "-seeds", "1"}},
	{"wsls_emergence", "./examples/wsls_emergence", []string{
		"-ssets", "16", "-generations", "500"}},
}

func TestSmokeMains(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs of cmd/ and examples/ skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	binDir := t.TempDir()

	built := make(map[string]string)
	for _, target := range smokeTargets {
		if _, ok := built[target.dir]; ok {
			continue
		}
		out := filepath.Join(binDir, filepath.Base(target.dir))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		cmd := exec.CommandContext(ctx, goBin, "build", "-o", out, target.dir)
		output, err := cmd.CombinedOutput()
		cancel()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", target.dir, err, output)
		}
		built[target.dir] = out
	}

	for _, target := range smokeTargets {
		target := target
		t.Run(target.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, built[target.dir], target.args...)
			output, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("%s %v timed out", target.dir, target.args)
			}
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", target.dir, target.args, err, output)
			}
			if len(output) == 0 {
				t.Fatalf("%s produced no output", target.dir)
			}
		})
	}

	t.Run("checkpoint-resume", func(t *testing.T) {
		smokeCheckpointResume(t, built["./cmd/evogame"])
	})
}

// smokeCheckpointResume enforces the CLI resume guarantee on every push: a
// run interrupted at N/2 (the first half runs with -ckpt-every and stops,
// exactly what a killed run leaves on disk) and resumed with -resume must
// end bit-identical to an uninterrupted run of N generations, in both
// engines.  The comparison reads the final checkpoints, which also
// exercises the engine-written (typed, correct-generation) snapshot path.
func smokeCheckpointResume(t *testing.T, bin string) {
	runCLI := func(args ...string) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, bin, args...)
		output, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, output)
		}
	}
	for _, mode := range []struct {
		name  string
		extra []string
	}{
		{"serial", nil},
		{"parallel", []string{"-parallel", "-ranks", "3"}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			full := filepath.Join(dir, "full.ckpt")
			half := filepath.Join(dir, "half.ckpt")
			resumed := filepath.Join(dir, "resumed.ckpt")
			base := append([]string{
				"-ssets", "12", "-agents", "2", "-rounds", "20", "-noise", "0.05",
				"-seed", "11", "-topology", "ring:4",
			}, mode.extra...)

			runCLI(append(append([]string{}, base...), "-generations", "60", "-checkpoint", full)...)
			runCLI(append(append([]string{}, base...), "-generations", "30", "-ckpt-every", "10", "-checkpoint", half)...)
			runCLI(append(append([]string{}, base...), "-resume", half, "-generations", "30", "-checkpoint", resumed)...)

			want, err := checkpoint.Load(full)
			if err != nil {
				t.Fatal(err)
			}
			got, err := checkpoint.Load(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got.Generation != 60 || want.Generation != 60 {
				t.Fatalf("generations: resumed %d, uninterrupted %d, want 60", got.Generation, want.Generation)
			}
			if len(got.Strategies) != len(want.Strategies) {
				t.Fatalf("table length %d vs %d", len(got.Strategies), len(want.Strategies))
			}
			for i := range want.Strategies {
				if !want.Strategies[i].Equal(got.Strategies[i]) {
					t.Fatalf("strategy %d diverged between interrupted+resumed and uninterrupted runs", i)
				}
			}
			if got.PCEvents != want.PCEvents || got.Adoptions != want.Adoptions || got.Mutations != want.Mutations {
				t.Fatalf("event trace diverged: [%d %d %d] vs [%d %d %d]",
					got.PCEvents, got.Adoptions, got.Mutations, want.PCEvents, want.Adoptions, want.Mutations)
			}
		})
	}
}
