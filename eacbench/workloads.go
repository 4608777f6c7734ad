package main

import (
	"fmt"

	"eac/internal/admission"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// A workload is one named set of operating points. Every point sits above
// the admission knee (offered load > 1), so the probe → decide →
// admit/reject loop rejects flows and the benchmark measures endpoint
// admission control rather than plain forwarding. README.md gives the
// reason each workload exists and which layer it stresses.
type workload struct {
	name string
	// points builds the workload's configs from the benchmark seed.
	points func(seed uint64) []pointSpec
	// pooled runs each point's seeds on scenario.RunSeedsObserved's worker
	// pool with one worker per CPU; otherwise every run is a serial
	// scenario.NewRunner / Runner.Run.
	pooled bool
}

// pointSpec is one operating point: a config run once per seed.
type pointSpec struct {
	name string
	cfg  scenario.Config
	// deciding marks points held to the blocking floor. Always-admit and
	// MBAC points are exempt by construction: the first never rejects,
	// the second decides at the router, not at the endpoint.
	deciding bool
	seeds    []uint64
}

// workloads lists the benchmark's workloads by name.
var workloads = []workload{
	{name: "paper-grid", points: paperGrid, pooled: true},
	{name: "metro-knee", points: metroKnee},
	{name: "metro-hybrid", points: metroHybrid},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// gridSeedsPerPoint is even so the two-worker pool splits every point
// evenly on the two-core hosts the benchmark was calibrated on.
const gridSeedsPerPoint = 4

// paperGrid is the paper's single congested link (the Figure 2 base
// scenario at quick-mode time scale: EXP1 sources, tau = 0.35 s, 30 s
// lifetimes, prepopulated to 75% load). Points: the four probe designs
// at two thresholds each, the Measured Sum MBAC, and four admission
// policies under the on/off load of the policy_thrash experiment.
func paperGrid(seed uint64) []pointSpec {
	seeds := make([]uint64, gridSeedsPerPoint)
	for i := range seeds {
		seeds[i] = seed*100 + uint64(i) + 1
	}
	base := scenario.Config{
		Classes:         []scenario.ClassSpec{{Name: "EXP1", Preset: trafgen.EXP1, Weight: 1, Eps: -1}},
		InterArrival:    0.35,
		LifetimeSec:     30,
		PrepopulateUtil: 0.75,
		Duration:        60 * sim.Second,
		Warmup:          15 * sim.Second,
	}
	eac := func(d admission.Design, eps float64) scenario.Config {
		c := base
		c.Method = scenario.EAC
		c.AC = admission.Config{Design: d, Kind: admission.SlowStart, Eps: eps}
		return c
	}
	var pts []pointSpec
	for _, d := range admission.Designs {
		eps := []float64{0.01, 0.05}
		if d.Band == admission.OutOfBand {
			eps = []float64{0.05, 0.20}
		}
		for _, e := range eps {
			pts = append(pts, pointSpec{name: fmt.Sprintf("%s eps=%.2f", d, e), cfg: eac(d, e), deciding: true})
		}
	}
	mbac := base
	mbac.Method = scenario.MBAC
	mbac.MS.Target = 0.95
	pts = append(pts, pointSpec{name: "MBAC u=0.95", cfg: mbac})
	for _, pc := range []admission.PolicyConfig{
		{Kind: admission.PolicyStatic},
		{Kind: admission.PolicyEpochAdaptive},
		{Kind: admission.PolicyTokenBucket, BucketCap: 5, BucketRate: 0.5 / base.InterArrival, BucketCost: 1},
		{Kind: admission.PolicyAlwaysAdmit},
	} {
		c := eac(admission.DropInBand, 0.02)
		c.Load = scenario.LoadSpec{PeriodSec: 20, OnFraction: 0.5, OnFactor: 2}
		c.Policy = pc
		pts = append(pts, pointSpec{name: "on/off " + pc.Kind.String(), cfg: c,
			deciding: pc.Kind != admission.PolicyAlwaysAdmit})
	}
	for i := range pts {
		pts[i].seeds = seeds
	}
	return pts
}

// metro is the MetroStar 8×3 preset (25 links) at the given concurrent
// host count with 30 s lifetimes and 1.5× the preset's arrival rate,
// admitted by in-band dropping with slow-start probes at ε = 0.01.
func metro(hosts int, seed uint64) scenario.Config {
	c := scenario.MetroStar(scenario.MetroStarOptions{Hosts: hosts})
	c.LifetimeSec = 30
	c.InterArrival = c.LifetimeSec / float64(hosts) / 1.5
	c.Method = scenario.EAC
	c.AC = admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01}
	c.Duration, c.Warmup, c.Drain = 12*sim.Second, 4*sim.Second, sim.Second
	c.Seed = seed
	return c
}

// metroKnee is one serial packet-engine run at 2 000 concurrent hosts: a
// deep pending-event set and multi-hop forwarding.
func metroKnee(seed uint64) []pointSpec {
	return []pointSpec{{name: "metro-star 2000 hosts", cfg: metro(2000, seed), deciding: true, seeds: []uint64{seed}}}
}

// metroHybrid is the same topology at 10 000 hosts on the hybrid engine:
// data as per-link fluid, probes as packets.
func metroHybrid(seed uint64) []pointSpec {
	c := metro(10000, seed)
	c.Hybrid.Enabled = true
	return []pointSpec{{name: "metro-star 10000 hosts hybrid", cfg: c, deciding: true, seeds: []uint64{seed}}}
}
