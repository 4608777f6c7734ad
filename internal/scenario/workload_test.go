package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// --- Schedule grammar and evaluation -----------------------------------

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		spec string
		want Schedule
	}{
		{"const:100:2", Schedule{Phases: []Phase{{PhaseConst, 100, 2, 2}}}},
		{"spike:30:4", Schedule{Phases: []Phase{{PhaseConst, 30, 4, 4}}}},
		{"ramp:60:1:3", Schedule{Phases: []Phase{{PhaseRamp, 60, 1, 3}}}},
		{"sawtooth:60:0:2", Schedule{Phases: []Phase{{PhaseRamp, 60, 0, 2}}}},
		{"diurnal:86400:0.5:2", Schedule{Phases: []Phase{{PhaseSine, 86400, 0.5, 2}}}},
		{"steps:10:1:2:3", Schedule{Phases: []Phase{
			{PhaseConst, 10, 1, 1}, {PhaseConst, 10, 2, 2}, {PhaseConst, 10, 3, 3}}}},
		{"flash:50:10:1:4", Schedule{Phases: []Phase{
			{PhaseConst, 50, 1, 1}, {PhaseConst, 10, 4, 4}, {PhaseConst, 1, 1, 1}}, Hold: true}},
		{"const:60:1, ramp:30:1:4 ,hold", Schedule{Phases: []Phase{
			{PhaseConst, 60, 1, 1}, {PhaseRamp, 30, 1, 4}}, Hold: true}},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.spec)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSchedule(%q) = %+v, want %+v", c.spec, got, c.want)
			continue
		}
		// The String rendering must parse back to the same schedule (the
		// manifest records schedules in this form).
		back, err := ParseSchedule(got.String())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Errorf("ParseSchedule(%q).String() = %q does not round-trip (%v)", c.spec, got.String(), err)
		}
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"hold",                 // no phases
		"wave:10:1",            // unknown kind
		"const:10",             // missing factor
		"const:10:1:2",         // too many args
		"ramp:10:1",            // ramp needs two factors
		"const:ten:1",          // non-numeric
		"const:0:1",            // zero duration
		"const:-5:1",           // negative duration
		"const:10:-1",          // negative factor
		"const:10:0",           // peak zero: no traffic ever
		"steps:10",             // steps needs at least one factor
		"flash:10:5:1",         // flash needs four args
		"sine:10:1:" + "1e999", // non-finite factor
	} {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", spec)
		}
	}
}

func TestScheduleFactorAt(t *testing.T) {
	s := Schedule{Phases: []Phase{
		{Kind: PhaseConst, DurationSec: 10, From: 1, To: 1},
		{Kind: PhaseRamp, DurationSec: 10, From: 1, To: 3},
		{Kind: PhaseSine, DurationSec: 10, From: 1, To: 5},
	}}
	cases := []struct{ t, want float64 }{
		{0, 1}, {9.99, 1},
		{10, 1}, {15, 2}, {19.99, 2.998},
		{20, 1}, {25, 5}, {22.5, 3}, // sine: start, peak, quarter cycle
		{30, 1}, {45, 2}, // cycled back to phase 0, then the ramp again
	}
	for _, c := range cases {
		if got := s.FactorAt(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FactorAt(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if p := s.Peak(); p != 5 {
		t.Errorf("Peak() = %g, want 5", p)
	}

	// Hold freezes the last phase's end factor instead of cycling.
	h := Schedule{Phases: []Phase{
		{Kind: PhaseConst, DurationSec: 10, From: 2, To: 2},
		{Kind: PhaseRamp, DurationSec: 10, From: 2, To: 4},
	}, Hold: true}
	for _, tt := range []float64{20, 25, 1e6} {
		if got := h.FactorAt(tt); got != 4 {
			t.Errorf("held FactorAt(%g) = %g, want 4", tt, got)
		}
	}

	// The cursor form must agree with the stateless form for monotone
	// queries and recover from a backwards query (Workspace reset rewinds
	// the clock to zero between runs).
	var cur schedCursor
	for _, q := range []float64{0, 3, 12, 17, 29, 31, 44, 2, 55} {
		if got, want := s.factorAt(q, &cur), s.FactorAt(q); got != want {
			t.Errorf("cursor factorAt(%g) = %g, stateless = %g", q, got, want)
		}
	}

	// An inactive schedule leaves the stationary process untouched.
	if got := (Schedule{}).FactorAt(123); got != 1 {
		t.Errorf("inactive FactorAt = %g, want 1", got)
	}
}

// --- Lewis–Shedler thinning against the square wave (PR 8 bugfix audit) --

// loadCountCfg is a light scenario for counting arrivals: no admission
// control, tiny lifetimes, and a Warmup/Drain pair placing the accounting
// window over one phase of the modulation. Method None decides every flow
// at its arrival instant, so Metrics.Decided counts in-window arrivals.
func loadCountCfg(winStart, winEnd float64) Config {
	// Warmup/Drain of exactly zero would be defaulted to the paper's
	// choices by Validate; a millisecond keeps the window edge in place.
	warm := sim.Seconds(winStart)
	if warm == 0 {
		warm = sim.Millisecond
	}
	drain := sim.Seconds(100 - winEnd)
	if drain == 0 {
		drain = sim.Millisecond
	}
	return Config{
		Method:       None,
		InterArrival: 0.5, // 2 arrivals/s at factor 1
		LifetimeSec:  1,
		Duration:     100 * sim.Second,
		Warmup:       warm,
		Drain:        drain,
		Seed:         17,
	}
}

// TestLoadOffFactorPeak pins the thinning envelope when OffFactor exceeds
// OnFactor: the peak must be max(OnFactor, OffFactor). Were the envelope
// OnFactor (the PR 8 audit's suspected bug), thinning could never raise
// the rate above 1x and the off window would see ~100 arrivals instead of
// ~300.
func TestLoadOffFactorPeak(t *testing.T) {
	load := LoadSpec{PeriodSec: 100, OnFraction: 0.5, OnFactor: 1, OffFactor: 3}

	off := loadCountCfg(50, 100)
	off.Load = load
	m, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson(300): +/-4 sigma is ~±69.
	if m.Decided < 220 || m.Decided > 380 {
		t.Errorf("off-phase window saw %d arrivals, want ~300 (3x of 2/s over 50s)", m.Decided)
	}

	on := loadCountCfg(0, 50)
	on.Load = load
	m, err = Run(on)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided < 55 || m.Decided > 145 {
		t.Errorf("on-phase window saw %d arrivals, want ~100 (1x of 2/s over 50s)", m.Decided)
	}
}

// TestLoadInvertedWave pins the withDefaults fix: an explicit OnFactor 0
// with a positive OffFactor is an inverted duty cycle (silence during the
// on phase), not an unset knob to be defaulted to 2.
func TestLoadInvertedWave(t *testing.T) {
	cfg := loadCountCfg(0, 50)
	cfg.Load = LoadSpec{PeriodSec: 100, OnFraction: 0.5, OffFactor: 3}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided != 0 {
		t.Errorf("inverted wave: on-phase window saw %d arrivals, want exactly 0", m.Decided)
	}
}

// TestLoadOnFractionFull pins OnFraction = 1: the whole period is the on
// phase, a plain rate scaling with no silent part.
func TestLoadOnFractionFull(t *testing.T) {
	cfg := loadCountCfg(0, 100)
	cfg.Load = LoadSpec{PeriodSec: 10, OnFraction: 1, OnFactor: 2, OffFactor: 0}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson(400): +/-4 sigma is ±80.
	if m.Decided < 310 || m.Decided > 490 {
		t.Errorf("OnFraction=1 saw %d arrivals over 100s, want ~400 (2x of 2/s)", m.Decided)
	}
}

// TestScheduleArrivalCounts pins the schedule's thinning end to end: a
// two-step schedule produces the stepped arrival rates, counted per phase,
// and a one-shot spike on a 4-link chain is modulated on the absolute
// phase clock.
func TestScheduleArrivalCounts(t *testing.T) {
	sched := Schedule{Phases: []Phase{
		{Kind: PhaseConst, DurationSec: 50, From: 1, To: 1},
		{Kind: PhaseConst, DurationSec: 50, From: 3, To: 3},
	}}
	lo := loadCountCfg(0, 50)
	lo.Schedule = sched
	m, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided < 55 || m.Decided > 145 {
		t.Errorf("base phase saw %d arrivals, want ~100", m.Decided)
	}
	hi := loadCountCfg(50, 100)
	hi.Schedule = sched
	m, err = Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided < 220 || m.Decided > 380 {
		t.Errorf("3x phase saw %d arrivals, want ~300", m.Decided)
	}

	spike := chainConfig(4)
	spike.Method = None
	spike.LifetimeSec = 2
	spike.InterArrival = 0.2
	spike.Schedule = Schedule{Phases: []Phase{
		{Kind: PhaseConst, DurationSec: 10, From: 1, To: 1},
		{Kind: PhaseConst, DurationSec: 5, From: 4, To: 4},
		{Kind: PhaseConst, DurationSec: 15, From: 1, To: 1},
	}, Hold: true}
	// Window over the spike only: the phase clock is absolute sim time.
	spike.Warmup = 10 * sim.Second
	spike.Drain = spike.Duration - 15*sim.Second
	if m, err = Run(spike); err != nil {
		t.Fatal(err)
	}
	// 5s at 4x of 5/s = ~100 expected; Poisson ±4 sigma is ±40.
	if m.Decided < 55 || m.Decided > 145 {
		t.Errorf("spike window saw %d arrivals, want ~100", m.Decided)
	}
}

// --- Workspace reuse with temporal state --------------------------------

// TestWorkspaceLoadByteIdentical pins Workspace.reset against the new
// temporal state: phase cursor, thinning RNG stream, and replay position
// must reinitialize so cell reuse under the grid engine is byte-identical
// to fresh runs, including a repeated config after intervening runs moved
// all three.
func TestWorkspaceLoadByteIdentical(t *testing.T) {
	replay, err := NewReplayTrace([]ReplayArrival{
		{At: 2 * sim.Second, Class: 0},
		{At: 11 * sim.Second, Class: 0},
		{At: 12 * sim.Second, Class: 0},
		{At: 30 * sim.Second, Class: 0},
	}, "synthetic")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seed uint64, mut func(*Config)) Config {
		cfg := Config{
			Links:           []LinkSpec{{RateBps: 1e6, Delay: 10 * sim.Millisecond, BufferPkts: 20}},
			InterArrival:    1,
			LifetimeSec:     20,
			Duration:        50 * sim.Second,
			Warmup:          10 * sim.Second,
			PrepopulateUtil: 0.8,
			Seed:            seed,
		}
		mut(&cfg)
		return cfg
	}
	onoff := func(c *Config) { c.Load = LoadSpec{PeriodSec: 20, OnFraction: 0.5, OnFactor: 2} }
	spike := func(c *Config) {
		c.Schedule = Schedule{Phases: []Phase{
			{Kind: PhaseConst, DurationSec: 20, From: 1, To: 1},
			{Kind: PhaseConst, DurationSec: 10, From: 4, To: 4},
			{Kind: PhaseConst, DurationSec: 30, From: 1, To: 1},
		}, Hold: true}
	}
	seq := []Config{
		mk(1, onoff),
		mk(2, spike), // different phase trajectory moves the cursor
		mk(3, func(c *Config) { c.Replay = replay }),
		mk(4, func(c *Config) { c.Schedule, _ = ParseSchedule("ramp:25:0.5:3,hold") }),
		mk(1, onoff), // repeat of the first: reused state must not leak
		mk(3, func(c *Config) { c.Replay = replay }),
	}
	ws := NewWorkspace()
	for i, cfg := range seq {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d: fresh: %v", i, err)
		}
		reused, err := ws.Run(cfg)
		if err != nil {
			t.Fatalf("run %d: workspace: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("run %d (seed %d): workspace metrics diverge from fresh run\nfresh:  %+v\nreused: %+v",
				i, cfg.Seed, fresh, reused)
		}
	}
}

// --- Replay -------------------------------------------------------------

func TestReplayTraceConstruction(t *testing.T) {
	// Out-of-order input is sorted; equal timestamps keep recorded order.
	tr, err := NewReplayTrace([]ReplayArrival{
		{At: 5 * sim.Second, Class: 2},
		{At: sim.Second, Class: 0},
		{At: 5 * sim.Second, Class: 1},
	}, "x")
	if err != nil {
		t.Fatal(err)
	}
	want := []ReplayArrival{{sim.Second, 0}, {5 * sim.Second, 2}, {5 * sim.Second, 1}}
	if !reflect.DeepEqual(tr.arrivals, want) {
		t.Errorf("arrivals = %v, want %v", tr.arrivals, want)
	}
	if tr.MaxClass() != 2 || tr.Len() != 3 || tr.Digest() == "" {
		t.Errorf("Len/MaxClass/Digest = %d/%d/%q", tr.Len(), tr.MaxClass(), tr.Digest())
	}
	if _, err := NewReplayTrace([]ReplayArrival{{At: -1, Class: 0}}, "x"); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := NewReplayTrace([]ReplayArrival{{At: 1, Class: -1}}, "x"); err == nil {
		t.Error("negative class accepted")
	}

	// Different content must digest differently (the fingerprint rides on
	// this).
	tr2, err := NewReplayTrace([]ReplayArrival{{At: sim.Second, Class: 0}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Digest() == tr.Digest() {
		t.Error("distinct traces share a digest")
	}
}

func TestParseReplayTolerant(t *testing.T) {
	in := strings.Join([]string{
		`{"t":0.5,"ev":"arrival","flow":3,"class":1}`,
		`{"t":0.25,"ev":"enqueue","link":"l0","flow":1}`, // other kind: skipped
		`not json at all`,                              // damaged: skipped
		`{"t":-1,"ev":"arrival","class":0}`,            // negative time: skipped
		`{"t":1.5,"ev":"arrival","class":0,"shard":1}`, // unknown keys: ignored
		``,
	}, "\n")
	tr, err := ParseReplay(strings.NewReader(in), "mem")
	if err != nil {
		t.Fatal(err)
	}
	want := []ReplayArrival{
		{At: sim.Seconds(0.5), Class: 1},
		{At: sim.Seconds(1.5), Class: 0},
	}
	if !reflect.DeepEqual(tr.arrivals, want) {
		t.Errorf("arrivals = %v, want %v", tr.arrivals, want)
	}
}

// TestReplayClassBounds pins Config.Validate's class check: a trace
// referencing a class the config does not have must be rejected, not
// panic at arrival time.
func TestReplayClassBounds(t *testing.T) {
	tr, err := NewReplayTrace([]ReplayArrival{{At: sim.Second, Class: 3}}, "x")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadCountCfg(0, 100)
	cfg.Replay = tr
	if _, err := Run(cfg); err == nil {
		t.Fatal("replay trace with out-of-range class accepted")
	}
}

// replayRecordCfg is the recorded scenario of the round-trip tests: a
// congested single link under a flash-crowd schedule with full admission
// dynamics (probes, retries, drops). The trace ring is sized to hold every
// event of the run — a wrapped ring would discard the earliest arrivals
// and break the replay contract.
func replayRecordCfg(dir string) Config {
	return Config{
		Classes:         []ClassSpec{{Preset: trafgen.EXP1, Weight: 1, Eps: -1}},
		Links:           []LinkSpec{{RateBps: 2e6, Delay: 10 * sim.Millisecond, BufferPkts: 40}},
		InterArrival:    1,
		LifetimeSec:     10,
		Duration:        60 * sim.Second,
		Warmup:          15 * sim.Second,
		Method:          EAC,
		AC:              admission.Config{Design: admission.DropInBand, Kind: admission.SlowStart, Eps: 0.02},
		MaxRetries:      2,
		PrepopulateUtil: 0.5,
		Seed:            42,
		Schedule: Schedule{Phases: []Phase{
			{Kind: PhaseConst, DurationSec: 20, From: 1, To: 1},
			{Kind: PhaseConst, DurationSec: 10, From: 3, To: 3},
			{Kind: PhaseConst, DurationSec: 30, From: 1, To: 1},
		}, Hold: true},
		Obs: obs.Config{
			Enabled:       true,
			Dir:           dir,
			Label:         "replaytest",
			TraceCapacity: 1 << 20,
			TracePath:     filepath.Join(dir, "record-trace.jsonl"),
		},
	}
}

// TestReplayRoundTrip is the acceptance pin: recording a run's obs trace
// and re-driving it as a workload reproduces the original run's aggregate
// metrics byte for byte (same seed, same parameters). The replayed config
// drops the schedule (the trace already embodies it) and observability
// (whose presence never changes metrics).
func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := replayRecordCfg(dir)
	m1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := LoadReplay(cfg.Obs.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("recorded trace contains no arrival events")
	}

	rep := cfg
	rep.Schedule = Schedule{}
	rep.Obs = obs.Config{}
	rep.Replay = tr
	m2, err := Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("replayed metrics diverge from the recorded run\nrecorded: %+v\nreplayed: %+v", m1, m2)
	}
}
