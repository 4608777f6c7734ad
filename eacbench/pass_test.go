package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"eac/internal/scenario"
)

// onePoint wraps one run's metrics as a single-point pass.
func onePoint(deciding bool, m scenario.Metrics) passResult {
	return passResult{points: []pointResult{{
		spec: pointSpec{name: "p", deciding: deciding, seeds: []uint64{1}},
		runs: []scenario.Metrics{m},
	}}}
}

// deciding returns the metrics of a healthy run that rejects a quarter of
// its flows.
func decidingRun() scenario.Metrics {
	return scenario.Metrics{
		Utilization:  0.8,
		BlockingProb: 0.25,
		Classes:      []scenario.ClassMetrics{{Name: "up-0", Arrived: 400, Accepted: 300, Blocked: 100}},
		Links:        []scenario.LinkMetrics{{Utilization: 0.8}, {Utilization: 0.7}},
	}
}

func TestCheckAcceptsDecidingRun(t *testing.T) {
	if err := onePoint(true, decidingRun()).check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsBlockingZero feeds the checker the outcome recorded by
// the legacy results/BENCH_hybrid.json point (hub utilization 0.89,
// blocking 0): there admission control never rejected a flow, so a
// deciding point shaped like it must fail.
func TestCheckRejectsBlockingZero(t *testing.T) {
	m := scenario.Metrics{
		Utilization:  0.890489799786348,
		BlockingProb: 0,
		Classes:      []scenario.ClassMetrics{{Name: "up-0", Arrived: 500, Accepted: 500}},
		Links:        []scenario.LinkMetrics{{Utilization: 0.890489799786348}},
	}
	err := onePoint(true, m).check()
	if err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("check() = %v; want a blocking-floor failure", err)
	}
	if err := onePoint(false, m).check(); err != nil {
		t.Fatalf("an exempt point (always-admit, MBAC) failed the floor: %v", err)
	}
}

func TestCheckRejectsBrokenInvariants(t *testing.T) {
	for name, mutate := range map[string]func(*scenario.Metrics){
		"accepted+blocked != arrived": func(m *scenario.Metrics) { m.Classes[0].Blocked++ },
		"zero utilization":            func(m *scenario.Metrics) { m.Utilization = 0 },
		"utilization above one":       func(m *scenario.Metrics) { m.Links[1].Utilization = 1.2 },
		"NaN utilization":             func(m *scenario.Metrics) { m.Links[0].Utilization = math.NaN() },
	} {
		m := decidingRun()
		m.Classes = slices.Clone(m.Classes)
		m.Links = slices.Clone(m.Links)
		mutate(&m)
		if err := onePoint(true, m).check(); err == nil {
			t.Errorf("%s: check() accepted the run", name)
		}
	}
}

func TestDigestCoversMetrics(t *testing.T) {
	a, b := onePoint(true, decidingRun()), onePoint(true, decidingRun())
	if a.digest() != b.digest() {
		t.Fatal("equal outputs gave different digests")
	}
	b.points[0].runs[0].Links[1].Utilization += 1e-12
	if a.digest() == b.digest() {
		t.Fatal("a change deep inside Metrics left the digest unchanged")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 1.75}, {50, 2.5}, {75, 3.25}, {100, 4},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v; want %v", xs, tc.p, got, tc.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of an odd count = %v; want 5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v; want 7", got)
	}
}

// TestWorkloadsBuild checks that every workload's configs validate and
// set up, and that they derive from the seed alone.
func TestWorkloadsBuild(t *testing.T) {
	for _, w := range workloads {
		if _, err := setupTimes(w, defaultSeed, 1, 0); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		a, b := w.points(heldOutSeed), w.points(heldOutSeed)
		for i := range a {
			if a[i].cfg.Fingerprint() != b[i].cfg.Fingerprint() || !slices.Equal(a[i].seeds, b[i].seeds) {
				t.Errorf("%s point %s: two builds from one seed differ", w.name, a[i].name)
			}
		}
	}
}
