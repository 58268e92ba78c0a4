// Command perfbench is the repository's benchmark: it runs one named
// workload at a paper-figure cell for a fixed time, checks every run's
// final state against a reference computed through an independent path,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig6b_dist_full --seed 2013 --seconds 30 --trace 0
//
// Each timed run executes in a fresh child process of the same binary, so
// its CPU time, allocation and resident high-water mark are its own.  See
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a childSpec to a child process; its presence selects
// child mode.
const childEnv = "PERFBENCH_CHILD"

// options are the command-line flags other than the workload.
type options struct {
	seed    uint64
	seconds int
	trace   int
	// corruptReference flips a bit of the reference hashes the runs are
	// compared with, so every run must count as failed; the self-test sets
	// it.
	corruptReference bool
}

// metric is one named measurement in the output.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is the benchmark's output record.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	if spec, ok := os.LookupEnv(childEnv); ok {
		os.Exit(childMain(spec))
	}
	w, opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := execute(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res.json())
}

func parseFlags(args []string) (workload, options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var name string
	var o options
	fs.StringVar(&name, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 30, "seconds to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return workload{}, options{}, err
	}
	if o.seconds < 1 {
		return workload{}, options{}, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return workload{}, options{}, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	w, err := lookupWorkload(name)
	return w, o, err
}

// execute runs one benchmark invocation on w, whose generation count and
// pinned hashes the self-test may have shortened.
func execute(w workload, o options) (result, error) {
	// The reference is computed before and outside any timed region.  The
	// traced run computes it one replicate at a time, for true solo times.
	refWorkers := w.in.ensembleWorkers
	if o.trace == 1 {
		refWorkers = 1
	}
	ref, soloTimes, err := w.reference(o.seed, w.gens, refWorkers)
	if err != nil {
		return result{}, fmt.Errorf("reference run: %w", err)
	}
	// At the default seed the runs are compared with the pinned hashes, so
	// a change that moves the dynamics of the fast path and the reference
	// path alike still fails every run; the reference must match the pin
	// too.
	pinnedOK := true
	if o.seed == defaultSeed {
		if !equalHashes(ref, w.pinned) {
			fmt.Fprintf(os.Stderr, "perfbench: %s reference hashes %x differ from the pinned %x\n", w.name, ref, w.pinned)
			pinnedOK = false
		}
		ref = append([]uint64(nil), w.pinned...)
	}
	if o.corruptReference {
		for i := range ref {
			ref[i] ^= 1
		}
	}
	var res result
	if o.trace == 1 {
		res, err = tracedRun(w, o.seed, ref, soloTimes)
	} else {
		res, err = timedRuns(w, o.seed, ref, time.Duration(o.seconds)*time.Second)
	}
	if err != nil {
		return result{}, err
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	res.correct = res.correct && pinnedOK
	return res, nil
}

// minRuns is the least number of timed runs per invocation, whatever
// --seconds says, so every median has samples on both sides.
const minRuns = 5

// setupReps is the number of zero-generation set-ups each child times; it
// reports their median.
const setupReps = 5

// timedRuns measures runs of w in fresh child processes until the time
// budget is spent and reports the medians.
func timedRuns(w workload, seed uint64, ref []uint64, budget time.Duration) (result, error) {
	var setup, rate, cpu, rss, alloc []float64
	var res result
	start := clock()
	for res.attempted < minRuns || time.Since(start) < budget {
		res.attempted++
		rep, rssMB, err := runChild(childSpec{Workload: w.name, Seed: seed, Gens: w.gens})
		if err == nil && !equalHashes(rep.Hashes, ref) {
			err = fmt.Errorf("final state hashes %x, reference %x", rep.Hashes, ref)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s run %d failed: %v\n", w.name, res.attempted, err)
			res.failed++
			continue
		}
		setup = append(setup, rep.SetupS)
		rate = append(rate, float64(rep.Gens)/(rep.RunS-rep.SetupS))
		cpu = append(cpu, rep.CPUS)
		rss = append(rss, rssMB)
		alloc = append(alloc, float64(rep.AllocBytes)/(1<<20))
	}
	res.correct = res.failed == 0
	res.metrics = []metric{
		{"setup_s", "s", median(setup)},
		{"gens_per_s", "1/s", median(rate)},
		{"cpu_s", "s", median(cpu)},
		{"peak_rss_mb", "MB", median(rss)},
		{"alloc_mb", "MB", median(alloc)},
		{"ok_frac", "ratio", float64(res.attempted-res.failed) / float64(res.attempted)},
	}
	return res, nil
}

// childSpec tells a child process which run to make.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Gens     int    `json:"gens"`
}

// childReport is what a child measured.
type childReport struct {
	// SetupS is the median of setupReps zero-generation set-ups.
	SetupS float64 `json:"setup_s"`
	// RunS is the wall time of the run, set-up included; CPUS its process
	// CPU time and AllocBytes the bytes it allocated.
	RunS       float64 `json:"run_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// Gens counts the generations completed, summed over replicates.
	Gens   int      `json:"gens"`
	Hashes []uint64 `json:"hashes"`
}

// runChild runs one timed run in a fresh process of this binary and
// returns its report and resident high-water mark in MB.
func runChild(spec childSpec) (childReport, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, 0, err
	}
	enc, err := json.Marshal(spec)
	if err != nil {
		return childReport{}, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(enc))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, 0, fmt.Errorf("child run: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{}, 0, fmt.Errorf("child report: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return childReport{}, 0, fmt.Errorf("child resource usage unavailable on %s", runtime.GOOS)
	}
	// Linux reports ru_maxrss in KiB.
	return rep, float64(ru.Maxrss) / 1024, nil
}

// childMain makes the run spec describes and writes its report to
// standard output.
func childMain(spec string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	rep, err := childRun(cs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

func childRun(cs childSpec) (childReport, error) {
	w, err := lookupWorkload(cs.Workload)
	if err != nil {
		return childReport{}, err
	}
	setup, err := medianSetup(w, cs.Seed, setupReps)
	if err != nil {
		return childReport{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuSeconds()
	if err != nil {
		return childReport{}, err
	}
	start := clock()
	out, err := w.run(cs.Seed, cs.Gens)
	if err != nil {
		return childReport{}, err
	}
	runS := time.Since(start).Seconds()
	cpu1, err := cpuSeconds()
	if err != nil {
		return childReport{}, err
	}
	runtime.ReadMemStats(&after)
	return childReport{
		SetupS:     setup,
		RunS:       runS,
		CPUS:       cpu1 - cpu0,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Gens:       cs.Gens * len(out.hashes),
		Hashes:     out.hashes,
	}, nil
}

// medianSetup is the median wall time, in seconds, of reps runs of w with
// zero generations: engine construction and nothing else.
func medianSetup(w workload, seed uint64, reps int) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		start := clock()
		if _, err := w.run(seed, 0); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs), nil
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// clock reads the wall clock.  It is the benchmark's only wall-clock read:
// timings are reported, never fed back into a simulation.
func clock() time.Time {
	//lint:allow randsource benchmark timing; wall-clock values are reported and never reach simulation state
	return time.Now()
}

func equalHashes(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// json renders the result as the single-line output record, metrics in
// their fixed order.
func (r result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	return b.String()
}
