package scenario

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// quickCfg returns a config scaled for fast tests: short lifetimes keep
// flow turnover high so steady state is reached in tens of seconds.
func quickCfg() Config {
	return Config{
		Classes:      []ClassSpec{{Preset: trafgen.EXP1, Eps: -1}},
		InterArrival: 0.35, // x10 arrival rate ...
		LifetimeSec:  30,   // ... with x10 shorter lives: same offered load
		Method:       EAC,
		AC:           admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.01},
		Duration:     300 * sim.Second,
		Warmup:       60 * sim.Second,
		Seed:         1,
	}
}

func TestRunBasicScenario(t *testing.T) {
	m, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization < 0.5 || m.Utilization > 1.0 {
		t.Fatalf("utilization = %v, want a loaded but feasible link", m.Utilization)
	}
	if m.BlockingProb <= 0 || m.BlockingProb >= 1 {
		t.Fatalf("blocking = %v at 110%% offered load", m.BlockingProb)
	}
	if m.DataLossProb < 0 || m.DataLossProb > 0.05 {
		t.Fatalf("loss = %v, want small but possibly nonzero", m.DataLossProb)
	}
	if m.Decided < 100 {
		t.Fatalf("only %d decisions in the window", m.Decided)
	}
	if m.ProbeShare <= 0 {
		t.Fatal("no probe traffic recorded")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Utilization != b.Utilization || a.DataLossProb != b.DataLossProb ||
		a.BlockingProb != b.BlockingProb || a.Decided != b.Decided {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestSeedsChangeOutcome(t *testing.T) {
	cfg := quickCfg()
	a, _ := Run(cfg)
	cfg.Seed = 2
	b, _ := Run(cfg)
	if a.Decided == b.Decided && a.Utilization == b.Utilization {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestNoAdmissionOverloads(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = None
	mNone, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Method = EAC
	mEAC, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mNone.BlockingProb != 0 {
		t.Fatal("Method None blocked flows")
	}
	if mNone.DataLossProb <= mEAC.DataLossProb {
		t.Fatalf("admission control should reduce loss: none=%v eac=%v",
			mNone.DataLossProb, mEAC.DataLossProb)
	}
}

func TestMBACControlsLoss(t *testing.T) {
	cfg := quickCfg()
	cfg.Method = MBAC
	cfg.MS.Target = 0.9
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockingProb <= 0 {
		t.Fatal("MBAC blocked nothing at 110% offered load")
	}
	if m.DataLossProb > 5e-3 {
		t.Fatalf("MBAC loss = %v at target 0.9", m.DataLossProb)
	}
	if m.ProbeShare != 0 {
		t.Fatal("MBAC does not probe")
	}
}

func TestMBACTargetSweepMonotone(t *testing.T) {
	var lastUtil float64
	for _, u := range []float64{0.7, 0.9, 1.1} {
		cfg := quickCfg()
		cfg.Method = MBAC
		cfg.MS.Target = u
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Utilization+0.03 < lastUtil {
			t.Fatalf("utilization fell as the MBAC target rose: %v -> %v at u=%v",
				lastUtil, m.Utilization, u)
		}
		lastUtil = m.Utilization
	}
}

func TestEpsilonSweepRaisesUtilizationAndLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(eps float64) Metrics {
		cfg := quickCfg()
		cfg.AC.Eps = eps
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	strict := run(0)
	loose := run(0.05)
	if loose.Utilization <= strict.Utilization {
		t.Fatalf("eps=0.05 utilization %v <= eps=0 %v", loose.Utilization, strict.Utilization)
	}
	if loose.BlockingProb >= strict.BlockingProb {
		t.Fatalf("eps=0.05 blocking %v >= eps=0 %v", loose.BlockingProb, strict.BlockingProb)
	}
}

func TestOutOfBandProtectsData(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(d admission.Design) Metrics {
		cfg := quickCfg()
		cfg.AC.Design = d
		cfg.AC.Eps = 0.01
		if d.Signal == admission.Mark {
			cfg.AC.Eps = 0.05
		}
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	inband := run(admission.DropInBand)
	outband := run(admission.DropOutOfBand)
	if outband.DataLossProb >= inband.DataLossProb {
		t.Fatalf("out-of-band loss %v >= in-band %v", outband.DataLossProb, inband.DataLossProb)
	}
}

func TestMarkingReducesLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(d admission.Design, eps float64) Metrics {
		cfg := quickCfg()
		cfg.AC.Design = d
		cfg.AC.Eps = eps
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	drop := run(admission.DropInBand, 0.01)
	mark := run(admission.MarkInBand, 0.01)
	if mark.DataLossProb >= drop.DataLossProb {
		t.Fatalf("marking loss %v >= dropping %v", mark.DataLossProb, drop.DataLossProb)
	}
}

func TestHeterogeneousThresholdsBlocking(t *testing.T) {
	// Table 3: the stricter class suffers higher blocking than the
	// looser one sharing the link.
	cfg := quickCfg()
	cfg.Classes = []ClassSpec{
		{Name: "strict", Preset: trafgen.EXP1, Weight: 1, Eps: 0},
		{Name: "loose", Preset: trafgen.EXP1, Weight: 1, Eps: 0.05},
	}
	cfg.Duration = 600 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strict, loose := m.Classes[0], m.Classes[1]
	if strict.Arrived < 100 || loose.Arrived < 100 {
		t.Fatalf("thin classes: %+v %+v", strict, loose)
	}
	if strict.BlockingProb() <= loose.BlockingProb() {
		t.Fatalf("strict class blocking %v <= loose %v",
			strict.BlockingProb(), loose.BlockingProb())
	}
}

func TestMultiHopLongFlowsBlockedMore(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	// Tables 5-6: flows crossing three congested links block more than
	// single-hop cross traffic.
	cfg := quickCfg()
	cfg.Links = []LinkSpec{{}, {}, {}}
	cfg.Classes = []ClassSpec{
		{Name: "long", Preset: trafgen.EXP1, Weight: 1, Path: []int{0, 1, 2}},
		{Name: "cross0", Preset: trafgen.EXP1, Weight: 1, Path: []int{0}},
		{Name: "cross1", Preset: trafgen.EXP1, Weight: 1, Path: []int{1}},
		{Name: "cross2", Preset: trafgen.EXP1, Weight: 1, Path: []int{2}},
	}
	cfg.InterArrival = 0.2
	cfg.Duration = 600 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := m.Classes[0]
	crossBlock := (m.Classes[1].BlockingProb() + m.Classes[2].BlockingProb() + m.Classes[3].BlockingProb()) / 3
	if long.Arrived < 50 {
		t.Fatalf("too few long flows: %+v", long)
	}
	if long.BlockingProb() <= crossBlock {
		t.Fatalf("long blocking %v <= cross blocking %v", long.BlockingProb(), crossBlock)
	}
}

func TestPrepopulateSpeedsWarmup(t *testing.T) {
	cfg := quickCfg()
	cfg.LifetimeSec = 300 // slow dynamics: ramp-up takes ~900 s
	cfg.InterArrival = 3.5
	cfg.Duration = 200 * sim.Second
	cfg.Warmup = 50 * sim.Second
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PrepopulateUtil = 0.8
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Utilization < cold.Utilization+0.2 {
		t.Fatalf("prepopulation had no effect: cold=%v warm=%v",
			cold.Utilization, warm.Utilization)
	}
}

func TestValidation(t *testing.T) {
	bad := quickCfg()
	bad.Classes[0].Path = []int{5}
	if _, err := Run(bad); err == nil {
		t.Fatal("out-of-range path accepted")
	}
	bad = quickCfg()
	bad.Warmup = 400 * sim.Second // >= duration
	if _, err := Run(bad); err == nil {
		t.Fatal("warmup >= duration accepted")
	}
	bad = quickCfg()
	bad.Classes[0].Weight = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestRunSeedsAggregation(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 150 * sim.Second
	mm, err := RunSeeds(cfg, DefaultSeeds(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(mm.Runs) != 3 {
		t.Fatalf("runs = %d", len(mm.Runs))
	}
	if mm.Mean.Utilization <= 0 {
		t.Fatal("mean utilization zero")
	}
	if mm.UtilStderr < 0 {
		t.Fatal("negative stderr")
	}
	// Mean must lie within the runs' range.
	lo, hi := 2.0, -1.0
	for _, r := range mm.Runs {
		if r.Utilization < lo {
			lo = r.Utilization
		}
		if r.Utilization > hi {
			hi = r.Utilization
		}
	}
	if mm.Mean.Utilization < lo || mm.Mean.Utilization > hi {
		t.Fatalf("mean %v outside [%v,%v]", mm.Mean.Utilization, lo, hi)
	}
}

func TestClassMetricsAccessors(t *testing.T) {
	cm := ClassMetrics{Arrived: 10, Blocked: 3, DataSent: 100, DataLost: 5}
	if cm.BlockingProb() != 0.3 || cm.LossProb() != 0.05 {
		t.Fatalf("accessors: %v %v", cm.BlockingProb(), cm.LossProb())
	}
	var empty ClassMetrics
	if empty.BlockingProb() != 0 || empty.LossProb() != 0 {
		t.Fatal("zero-value accessors should be 0")
	}
}

func TestPacketConservation(t *testing.T) {
	// Every allocated packet is either in the pool, in flight, or queued
	// when the run ends; a steady-state run must not grow allocations
	// without bound.
	r, err := NewRunner(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	if r.pool.Allocated > 3000 {
		t.Fatalf("allocated %d packets; pooling is not reusing them", r.pool.Allocated)
	}
}

func TestMethodAndQueueStrings(t *testing.T) {
	for m, want := range map[Method]string{EAC: "EAC", MBAC: "MBAC", None: "none", Passive: "passive"} {
		if m.String() != want {
			t.Fatalf("Method(%d).String() = %q", m, m.String())
		}
	}
}

func TestMetricsSummaryFormat(t *testing.T) {
	m := Metrics{Utilization: 0.5, DataLossProb: 1e-3, BlockingProb: 0.25, ProbeShare: 0.01}
	s := m.Summary()
	for _, frag := range []string{"util=0.500", "loss=1.00e-03", "blocking=0.250"} {
		if !contains(s, frag) {
			t.Fatalf("summary %q missing %q", s, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestPerLinkMetricsPopulated(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 150 * sim.Second
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Links) != 1 {
		t.Fatalf("links = %d", len(m.Links))
	}
	lm := m.Links[0]
	if lm.Utilization <= 0 || lm.Utilization != m.Utilization {
		t.Fatalf("link metrics inconsistent: %+v vs %v", lm, m.Utilization)
	}
	if lm.ProbeShare <= 0 {
		t.Fatal("no probe share on link 0")
	}
}

// chainConfig is a short multi-hop scenario: links chained links (paper
// defaults: 10 Mb/s, 20 ms, 200 pkts), one class over the whole chain
// plus one single-link class per link.
func chainConfig(links int) Config {
	cfg := Config{
		Duration:        25 * sim.Second,
		Warmup:          5 * sim.Second,
		InterArrival:    0.4,
		LifetimeSec:     60,
		PrepopulateUtil: 0.5,
		Seed:            11,
	}
	cfg.Links = make([]LinkSpec, links)
	long := make([]int, links)
	for i := range long {
		long[i] = i
	}
	cfg.Classes = append(cfg.Classes, ClassSpec{Name: "long", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: long})
	for i := 0; i < links; i++ {
		cfg.Classes = append(cfg.Classes, ClassSpec{Name: "x", Preset: trafgen.EXP1, Weight: 1, Eps: -1, Path: []int{i}})
	}
	return cfg
}

// TestRunSeedsObservedRecords pins the RunRecord side channel: per-seed
// records in input order, each with the run's executed-event count as a
// one-element ShardExecuted, identically for one worker and a pool.
func TestRunSeedsObservedRecords(t *testing.T) {
	cfg := chainConfig(3)
	seeds := []uint64{7, 8}
	mm, recs, err := RunSeedsObserved(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(seeds) {
		t.Fatalf("records = %d, want %d", len(recs), len(seeds))
	}
	for i, r := range recs {
		if r.Seed != seeds[i] {
			t.Fatalf("record %d seed = %d, want %d (order must match input)", i, r.Seed, seeds[i])
		}
		if len(r.ShardExecuted) != 1 || r.ShardExecuted[0] == 0 || r.Cached {
			t.Fatalf("record %d = %+v, want one nonzero executed count", i, r)
		}
	}
	mm2, recs2, err := RunSeedsObserved(cfg, seeds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm, mm2) || !reflect.DeepEqual(recs, recs2) {
		t.Fatal("pooled RunSeedsObserved diverged from the single-worker path")
	}
}

// TestRunSeedsParallelDeterminism proves the hard requirement of the
// parallel engine: the aggregate over seeds is bitwise-identical for any
// worker count, because each run owns its Sim and RNG streams and
// aggregation preserves seed order. Kept fast (short sims) so it also
// exercises the goroutine pool under -short -race.
func TestRunSeedsParallelDeterminism(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 40 * sim.Second
	cfg.Warmup = 10 * sim.Second
	cfg.PrepopulateUtil = 0.5
	seeds := DefaultSeeds(5)

	seq, err := RunSeedsParallel(cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := RunSeedsParallel(cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel aggregate differs from sequential\nseq: %+v\npar: %+v",
				workers, seq.Mean, par.Mean)
		}
	}

	// RunSeeds (default worker count) must agree too.
	def, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, def) {
		t.Fatal("RunSeeds default workers differs from sequential")
	}
}

// TestRunSeedsParallelError checks that a config error surfaces from the
// parallel path just as it does sequentially, and that an empty seed list
// is an error rather than an all-zero aggregate (DefaultSeeds yields none
// for n <= 0).
func TestRunSeedsParallelError(t *testing.T) {
	bad := quickCfg()
	bad.InterArrival = -1
	if _, err := RunSeedsParallel(bad, DefaultSeeds(3), 2); err == nil {
		t.Fatal("expected config error from parallel run")
	}
	if _, err := RunSeeds(quickCfg(), nil); err == nil {
		t.Fatal("RunSeeds with no seeds returned no error")
	}
	for _, n := range []int{0, -1} {
		if s := DefaultSeeds(n); s != nil {
			t.Errorf("DefaultSeeds(%d) = %v, want nil", n, s)
		}
	}
}

// TestRunSeedsLeavesConfigUnchanged pins that resolving defaults never
// writes into the caller's Classes or Links backing arrays: the pool's
// workers resolve one shared config concurrently, so a write there would
// both mutate the caller's value and race (make race runs this).
func TestRunSeedsLeavesConfigUnchanged(t *testing.T) {
	cfg := quickCfg()
	cfg.Duration = 10 * sim.Second
	cfg.Warmup = 2 * sim.Second
	cfg.Links = []LinkSpec{{}}
	if _, _, err := RunSeedsObserved(cfg, DefaultSeeds(4), 4); err != nil {
		t.Fatal(err)
	}
	if cl := cfg.Classes[0]; cl.Name != "" || cl.Weight != 0 {
		t.Errorf("caller's class resolved in place: name %q weight %g", cl.Name, cl.Weight)
	}
	if cfg.Links[0] != (LinkSpec{}) {
		t.Errorf("caller's link resolved in place: %+v", cfg.Links[0])
	}
}
