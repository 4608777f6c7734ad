// Command eacbench is the repository's benchmark. It runs one named
// workload of the simulator for a fixed host-time budget, checks the
// simulated outputs, and prints its metrics as one JSON object on the
// last line of standard output. With -trace 0 it reports the end-to-end
// host cost (wall_s, setup_s, peak_rss_mb); with -trace 1 it runs one
// plain and one CPU-profiled pass and reports the cost split by layer.
// See README.md for the workloads and the metrics.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash eacbench/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"eac/internal/scenario"
	"eac/internal/sim"
)

// Seeds the benchmark is pinned to. defaultSeed is the one results are
// quoted at; heldOutSeed was used for no tuning, so a later claim can be
// confirmed on inputs it was not written against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-grid, metro-knee or metro-hybrid")
		seed    = flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed; every simulation seed derives from it (held-out seed: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 30, "host seconds to spend measuring")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled pass")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eacbench:", err)
		os.Exit(2)
	}
	printLine("host", hostStamp())
	var res result
	if *trace == 0 {
		res, err = measure(w, *seed, *seconds)
	} else {
		res, err = traced(w, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eacbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eacbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printLine writes one informational "<tag> <json>" line to stdout.
func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", tag, b)
}

// passChecker counts passes and their failures: a pass fails if it errors,
// breaks an invariant, or produces a digest that differs from the first
// pass of the process.
type passChecker struct {
	w                 workload
	seed              uint64
	attempted, failed int
	digest            string
}

// run executes one pass and checks it. The error is non-nil only when
// the pass could not run at all, which ends the benchmark.
func (pc *passChecker) run(pooled bool, t *tally) (passResult, time.Duration, error) {
	pc.attempted++
	runtime.GC() // every pass starts from the same heap state
	start := time.Now()
	res, err := runPass(pc.w, pc.seed, pooled, t)
	wall := time.Since(start)
	if err != nil {
		return res, wall, err
	}
	d := res.digest()
	if pc.digest == "" {
		pc.digest = d
		pc.report(res)
	}
	switch err := res.check(); {
	case err != nil:
		pc.failed++
		fmt.Fprintln(os.Stderr, "eacbench: check failed:", err)
	case d != pc.digest:
		pc.failed++
		fmt.Fprintf(os.Stderr, "eacbench: digest %s differs from the first pass's %s\n", d, pc.digest)
	}
	return res, wall, nil
}

// report prints the first pass's simulated outputs, per point, and
// whether its digest matches the committed reference for this seed.
func (pc *passChecker) report(res passResult) {
	for _, p := range res.points {
		m := p.mean()
		printLine("point", map[string]any{"name": p.spec.name, "blocking": m.BlockingProb,
			"loss": m.DataLossProb, "utilization": m.Utilization, "decided": m.Decided})
	}
	ref := "none"
	if want, ok := referenceDigests[pc.w.name][pc.seed]; ok {
		ref = "mismatch"
		if want == pc.digest {
			ref = "match"
		}
	}
	printLine("digest", map[string]any{"workload": pc.w.name, "seed": pc.seed, "sha256": pc.digest, "reference": ref})
}

func (pc *passChecker) result(metrics map[string]metric) result {
	return result{Correct: pc.failed == 0, Attempted: pc.attempted, Failed: pc.failed, Metrics: metrics}
}

// setup_s reports the median over at least setupReps set-ups timed for at
// least setupTime, so a slow repetition (one that runs a GC cycle, say)
// does not move it.
const (
	setupReps = 41
	setupTime = time.Second
)

// measure reports the end-to-end metrics: the median wall time of whole
// passes run back to back for about seconds, the process's peak resident
// memory over those passes, and the median set-up time, timed after the
// passes so that it cannot raise the memory peak.
func measure(w workload, seed uint64, seconds float64) (result, error) {
	pc := &passChecker{w: w, seed: seed}
	var walls, cpus []float64
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds()+walls[len(walls)-1] <= seconds {
		cpu0 := processCPU()
		_, wall, err := pc.run(w.pooled, nil)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (processCPU() - cpu0).Seconds())
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	setup, err := setupTimes(w, seed, setupReps, setupTime)
	if err != nil {
		return result{}, err
	}
	printLine("timing", map[string]any{
		"wall_s": summary(walls), "cpu_s": summary(cpus), "setup_s": summary(setup),
	})
	return pc.result(map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {rss, "MiB"},
	}), nil
}

// setupTimes times the set-up of the workload's first point, at least
// minReps times and for at least minTime: scenario.NewRunner plus
// prepopulation, measured as a run of the same config cut to the first
// simulated millisecond. A set-up of a single link takes a tenth of a
// millisecond, so it repeats thousands of times and its median is steady.
func setupTimes(w workload, seed uint64, minReps int, minTime time.Duration) ([]float64, error) {
	p := w.points(seed)[0]
	cfg := p.cfg
	cfg.Seed = p.seeds[0]
	cfg.Duration, cfg.Warmup, cfg.Drain = sim.Millisecond, 500*sim.Microsecond, 250*sim.Microsecond
	var times []float64
	for begin := time.Now(); len(times) < minReps || time.Since(begin) < minTime; {
		start := time.Now()
		r, err := scenario.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		r.Run()
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// summary describes a sample of timings for the informational lines.
func summary(xs []float64) map[string]float64 {
	return map[string]float64{"n": float64(len(xs)), "median": median(xs),
		"p25": percentile(xs, 25), "p75": percentile(xs, 75), "max": percentile(xs, 100)}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs must not be empty.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, 0 ≤ p ≤ 100, interpolating
// linearly between the closest ranks. xs must not be empty; it is not
// modified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
