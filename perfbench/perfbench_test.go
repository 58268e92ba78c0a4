package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// timed run re-executes it as a child process.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// shortGens is the generation count of the self-test's runs.
const shortGens = 4

// shortWorkload is w cut to shortGens generations per run, with the
// default seed's reference at that length as its pinned hashes.
func shortWorkload(t *testing.T, w workload) workload {
	t.Helper()
	w.gens = shortGens
	pinned, _, err := w.reference(defaultSeed, shortGens, 2)
	if err != nil {
		t.Fatalf("%s: reference run: %v", w.name, err)
	}
	w.pinned = pinned
	return w
}

// shortRun makes one invocation of w for one second.
func shortRun(t *testing.T, w workload, o options) result {
	t.Helper()
	o.seconds = 1
	res, err := execute(w, o)
	if err != nil {
		t.Fatalf("%s --seed %d --trace %d: %v", w.name, o.seed, o.trace, err)
	}
	return res
}

// TestEveryMetricEmitted checks that each workload, timed and traced,
// emits exactly the metrics BENCHMARK.json declares, in its order and with
// its units, as valid JSON, and that its runs check out correct.
func TestEveryMetricEmitted(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q here", i, sw.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		w := shortWorkload(t, w)
		for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			res := shortRun(t, w, options{seed: defaultSeed, trace: trace})
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s --trace %d: correct=%t attempted=%d failed=%d", w.name, trace, res.correct, res.attempted, res.failed)
			}
			var out struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.json()), &out); err != nil {
				t.Fatalf("%s --trace %d: output is not JSON: %v", w.name, trace, err)
			}
			if len(res.metrics) != len(want) || len(out.Metrics) != len(want) {
				t.Fatalf("%s --trace %d: %d metrics emitted, %d declared", w.name, trace, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				got := out.Metrics[m.name]
				if m.name != want[i].Name || got.Unit != want[i].Unit || got.Value == nil {
					t.Errorf("%s --trace %d: metric %d is %q [%s], declared %q [%s]", w.name, trace, i, m.name, got.Unit, want[i].Name, want[i].Unit)
				}
			}
		}
	}
}

// TestCorruptedReferenceFails checks that runs whose final state does not
// match what they are compared with count as failed, timed and traced: the
// pinned hashes at the default seed, the freshly computed reference at any
// other seed.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		w := shortWorkload(t, w)
		badPin := w
		badPin.pinned = append([]uint64(nil), w.pinned...)
		badPin.pinned[0] ^= 1
		for _, trace := range []int{0, 1} {
			for _, c := range []struct {
				what string
				w    workload
				o    options
			}{
				{"corrupted pin", badPin, options{seed: defaultSeed, trace: trace}},
				{"corrupted reference", w, options{seed: defaultSeed + 1, trace: trace, corruptReference: true}},
			} {
				res := shortRun(t, c.w, c.o)
				if res.correct || res.failed == 0 {
					t.Errorf("%s --trace %d, %s: correct=%t failed=%d", w.name, trace, c.what, res.correct, res.failed)
				}
				if okFrac := res.metrics[len(res.metrics)-1]; trace == 0 && okFrac.value >= 1 {
					t.Errorf("%s, %s: ok_frac is %v", w.name, c.what, okFrac.value)
				}
			}
		}
	}
}

// TestPinnedHashes checks that the default seed still reproduces the
// reference hashes the benchmark pins.
func TestPinnedHashes(t *testing.T) {
	for _, w := range workloads {
		got, _, err := w.reference(defaultSeed, w.gens, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !equalHashes(got, w.pinned) {
			t.Errorf("%s: reference hashes %#x, pinned %#x", w.name, got, w.pinned)
		}
	}
}
