package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eac/internal/admission"
	"eac/internal/scenario"
)

// Job is one declared sweep point: a labelled scenario plus the
// completion hook that renders its aggregated result. Experiments build
// their full (design, prober, eps) grid as a []Job and hand it to
// runJobs, which executes every point×seed run on a shared worker pool
// and invokes Done strictly in declaration order — so progress logs,
// table rows, and CSVs are byte-identical to a sequential execution.
type Job struct {
	Label string
	Cfg   scenario.Config
	// Done receives the seed-aggregated metrics of this point. It runs on
	// the coordinating goroutine, one job at a time, in declaration
	// order; it is the only place a job may touch shared state (tables,
	// progress output).
	Done func(mm scenario.MultiMetrics) error
}

// errSkipped marks tasks abandoned after an earlier task failed. Tasks
// are claimed in index order, so a skipped index is always preceded by a
// genuinely failed one; the ordered scan in runOrdered therefore never
// surfaces this sentinel.
var errSkipped = errors.New("experiments: run skipped after earlier error")

// runOrdered executes run(0..n-1) on a pool of workers and calls done
// for each index in increasing order as results become available
// (streaming: done(i) fires as soon as runs 0..i have all finished, not
// after the whole batch). The first error — from run, in index order, or
// from done — stops the sweep and is returned; in-flight runs finish but
// unclaimed ones are skipped. run receives the claiming worker's index in
// [0, workers) so callers can keep per-worker state (e.g. a
// scenario.Workspace recycling simulator slabs between the runs one
// goroutine happens to claim); results must not depend on which worker
// runs what.
func runOrdered[T any](workers, n int, run func(worker, i int) (T, error), done func(i int, v T) error) error {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := run(0, i)
			if err != nil {
				return err
			}
			if err := done(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	results := make([]T, n)
	errs := make([]error, n)
	completed := make(chan int, n) // buffered: workers never block
	var nextTask atomic.Int64
	nextTask.Store(-1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(nextTask.Add(1))
				if i >= n {
					return
				}
				if stop.Load() {
					errs[i] = errSkipped
				} else {
					results[i], errs[i] = run(w, i)
					if errs[i] != nil {
						stop.Store(true)
					}
				}
				completed <- i
			}
		}(w)
	}

	ready := make([]bool, n)
	next := 0
	for range n {
		ready[<-completed] = true
		for next < n && ready[next] {
			if errs[next] != nil {
				return errs[next]
			}
			if err := done(next, results[next]); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}

// workers resolves the effective worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runJobs executes every job's per-seed runs concurrently and fires each
// job's Done callback in declaration order. Parallelism is at point×seed
// granularity: with J jobs and S seeds the pool sees J*S independent
// simulator runs, so even a few long points keep all cores busy. Each
// run owns its Sim and RNG streams and seeds are aggregated in order,
// making the output provably identical to Workers=1.
func (o Options) runJobs(jobs []Job) error {
	seeds := o.seeds()
	ns := len(seeds)
	total := len(jobs) * ns
	start := time.Now()
	runs := make([]scenario.Metrics, ns)
	// One workspace per worker: the runs a goroutine claims reuse its
	// simulator state (and worker count cannot affect results — the
	// workspace reuse path is byte-identical to fresh construction).
	workspaces := make([]*scenario.Workspace, o.workers())
	return runOrdered(o.workers(), total,
		func(worker, i int) (scenario.Metrics, error) {
			job, seed := i/ns, i%ns
			c := jobs[job].Cfg
			c.Seed = seeds[seed]
			c.Cache = o.Cache
			if o.Policy != (admission.PolicyConfig{}) && c.Method == scenario.EAC &&
				c.Policy == (admission.PolicyConfig{}) {
				c.Policy = o.Policy
			}
			if o.Hybrid && !c.Hybrid.Active() &&
				(c.Method == scenario.EAC || c.Method == scenario.None) {
				c.Hybrid.Enabled = true
			}
			// Workload overrides follow the Policy rule: only jobs that
			// did not pick a temporal source of their own are modulated,
			// so experiments that sweep nonstationarity explicitly keep
			// their configured dynamics.
			if !c.Load.Active() && !c.Schedule.Active() && c.Replay == nil {
				if o.Replay != nil {
					c.Replay = o.Replay
				} else if o.Schedule.Active() {
					c.Schedule = o.Schedule
				}
			}
			if o.Obs.Active() {
				// Per-run observability: every run gets its own
				// collector; artifacts are named by point label + seed.
				c.Obs = o.Obs
				c.Obs.Label = joinLabel(o.Obs.Label, fileLabel(jobs[job].Label))
			}
			ws := workspaces[worker]
			if ws == nil {
				ws = scenario.NewWorkspace()
				workspaces[worker] = ws
			}
			m, err := ws.Run(c)
			if err != nil {
				return m, fmt.Errorf("%s: %w", jobs[job].Label, err)
			}
			return m, nil
		},
		func(i int, m scenario.Metrics) error {
			if o.ETA != nil {
				o.ETA(i+1, total, time.Since(start))
			}
			runs[i%ns] = m
			if i%ns < ns-1 {
				return nil
			}
			// Last seed of this job: aggregate a copy (MultiMetrics
			// retains its Runs slice; the buffer is reused per job).
			mm := scenario.Aggregate(append([]scenario.Metrics(nil), runs...))
			return jobs[i/ns].Done(mm)
		})
}

// sequenced returns a copy of o whose Progress callback is serialized by
// a mutex, so callers that log from concurrent goroutines cannot
// interleave lines. The engine itself only logs from Done callbacks on
// the coordinating goroutine; the guard protects direct callers and
// future parallel paths.
func (o Options) sequenced() Options {
	if o.Progress == nil {
		return o
	}
	var mu sync.Mutex
	inner := o.Progress
	o.Progress = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		inner(format, args...)
	}
	return o
}

// stdJob declares a sweep point with the standard completion behaviour:
// log the point exactly like the sequential engine did, then emit one
// table row built from the mean metrics.
func (o Options) stdJob(label string, cfg scenario.Config, emit func([]string), row func(m scenario.Metrics) []string) Job {
	return Job{Label: label, Cfg: cfg, Done: func(mm scenario.MultiMetrics) error {
		o.logf("%-40s %s", label, mm.Mean.Summary())
		emit(row(mm.Mean))
		return nil
	}}
}

// rowsOf returns an emit function appending rows to t.
func rowsOf(t *Table) func([]string) {
	return func(cells []string) { t.Rows = append(t.Rows, cells) }
}

// fileLabel sanitizes a sweep-point label into a filename-safe stem.
func fileLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// joinLabel prefixes a point label with the sweep-wide label, if any.
func joinLabel(prefix, label string) string {
	if prefix == "" {
		return label
	}
	return prefix + "-" + label
}
