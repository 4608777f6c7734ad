package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/stats"
)

// passResult is the simulated output of one pass over a workload.
type passResult struct {
	points []pointResult
	// events is the number of simulator events the pass executed.
	events uint64
	// poolRuns counts the runs the seed pool executed (0 on serial passes).
	poolRuns int
}

// pointResult holds one operating point's per-seed metrics, in seed order.
type pointResult struct {
	spec pointSpec
	runs []scenario.Metrics
}

// mean returns the seed-averaged metrics of the point.
func (p pointResult) mean() scenario.Metrics { return scenario.Aggregate(p.runs).Mean }

// tally accumulates the per-layer counts an obs collector sees.
type tally struct {
	enqueues           int64
	hubDepth           stats.LogHist // link 0: the hub, or the single congested link
	admitted, rejected int64
	probeShare         float64 // summed over runs; divide by runs
	runs               int
}

func (t *tally) add(c *obs.Collector, m scenario.Metrics) {
	for i, h := range c.DepthHist() {
		t.enqueues += h.N()
		if i == 0 {
			t.hubDepth.Merge(h)
		}
	}
	d := c.DecisionCounts()
	t.admitted += d.Admitted
	t.rejected += d.Rejected
	t.probeShare += m.ProbeShare
	t.runs++
}

// runPass executes every point of the workload once. With pooled set each
// point's seeds go through scenario.RunSeedsObserved, the pool behind
// eac.RunSeeds; otherwise each run is a serial NewRunner / Run, and a
// non-nil t attaches a counting-only obs collector to every runner.
func runPass(w workload, seed uint64, pooled bool, t *tally) (passResult, error) {
	var res passResult
	for _, p := range w.points(seed) {
		pr := pointResult{spec: p}
		if pooled {
			mm, recs, err := scenario.RunSeedsObserved(p.cfg, p.seeds, runtime.GOMAXPROCS(0))
			if err != nil {
				return res, fmt.Errorf("%s: %w", p.name, err)
			}
			pr.runs = mm.Runs
			for _, rec := range recs {
				for _, n := range rec.ShardExecuted {
					res.events += n
				}
			}
			res.poolRuns += len(recs)
		} else {
			for _, sd := range p.seeds {
				c := p.cfg
				c.Seed = sd
				r, err := scenario.NewRunner(c)
				if err != nil {
					return res, fmt.Errorf("%s seed %d: %w", p.name, sd, err)
				}
				var col *obs.Collector
				if t != nil {
					col = obs.New(obs.Config{Enabled: true}, sd)
					r.Observe(col)
				}
				m := r.Run()
				if t != nil {
					t.add(col, m)
				}
				pr.runs = append(pr.runs, m)
				res.events += r.Sim().Executed()
			}
		}
		res.points = append(res.points, pr)
	}
	return res, nil
}

// digest is a SHA-256 over every run's full Metrics, in point and seed
// order. Equal simulated outputs give equal digests.
func (res passResult) digest() string {
	h := sha256.New()
	for _, p := range res.points {
		fmt.Fprintf(h, "%s\n", p.spec.name)
		for _, m := range p.runs {
			fmt.Fprintf(h, "%+v\n", m)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// blockingFloor is the least mean blocking a deciding point may show: below
// it admission control is barely rejecting and the workload no longer
// measures the probe → decide → admit/reject loop.
const blockingFloor = 0.1

// check returns the first invariant a pass breaks, or nil.
func (res passResult) check() error {
	for _, p := range res.points {
		for i, m := range p.runs {
			at := fmt.Sprintf("%s seed %d", p.spec.name, p.spec.seeds[i])
			for _, c := range m.Classes {
				if c.Accepted+c.Blocked != c.Arrived {
					return fmt.Errorf("%s class %s: accepted %d + blocked %d != arrived %d",
						at, c.Name, c.Accepted, c.Blocked, c.Arrived)
				}
			}
			if !(m.Utilization > 0 && m.Utilization <= 1) {
				return fmt.Errorf("%s: utilization %g outside (0, 1]", at, m.Utilization)
			}
			for j, l := range m.Links {
				if !(l.Utilization > 0 && l.Utilization <= 1) {
					return fmt.Errorf("%s link %d: utilization %g outside (0, 1]", at, j, l.Utilization)
				}
			}
		}
		if b := p.mean().BlockingProb; p.spec.deciding && b < blockingFloor {
			return fmt.Errorf("%s: blocking %.3f below the %.1f floor: admission is not deciding",
				p.spec.name, b, blockingFloor)
		}
	}
	return nil
}

// referenceDigests holds the committed output digest of each workload at
// the default and the held-out seed. A mismatch is reported, not failed:
// a change to the simulated model changes the digest on purpose.
var referenceDigests = func() map[string]map[uint64]string {
	var ref map[string]map[uint64]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("reference.json: " + err.Error())
	}
	return ref
}()

//go:embed reference.json
var referenceJSON []byte
