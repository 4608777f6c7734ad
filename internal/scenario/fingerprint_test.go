package scenario

import (
	"reflect"
	"testing"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/mbac"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// TestFingerprintStable checks determinism and default-resolution
// equivalence: a zero config and its explicit paper defaults hash the same.
func TestFingerprintStable(t *testing.T) {
	a := Config{}.Fingerprint()
	if a != (Config{}).Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	explicit := Config{InterArrival: 3.5, LifetimeSec: 300, VQFactor: 0.9,
		Duration: 14000 * sim.Second, Warmup: 2000 * sim.Second, Drain: 2 * sim.Second}
	if explicit.Fingerprint() != a {
		t.Fatal("explicit paper defaults fingerprint differently from the zero config")
	}
}

// TestFingerprintExclusions: fields documented as results-neutral must not
// move the fingerprint.
func TestFingerprintExclusions(t *testing.T) {
	base := Config{}.Fingerprint()
	for name, c := range map[string]Config{
		"Name":  {Name: "figure-1"},
		"Obs":   {Obs: obs.Config{Enabled: true, Dir: "/tmp/x", Label: "l"}},
		"Cache": {Cache: &cache.Store{}},
	} {
		if c.Fingerprint() != base {
			t.Errorf("%s changed the fingerprint but is documented as excluded", name)
		}
	}
}

// TestFingerprintSensitivity: every results-affecting knob must move the
// fingerprint, and all mutations must be pairwise distinct.
func TestFingerprintSensitivity(t *testing.T) {
	mutations := map[string]func(*Config){
		"Seed":            func(c *Config) { c.Seed = 7 },
		"InterArrival":    func(c *Config) { c.InterArrival = 2.5 },
		"LifetimeSec":     func(c *Config) { c.LifetimeSec = 100 },
		"Method":          func(c *Config) { c.Method = MBAC },
		"Queue":           func(c *Config) { c.Queue = QueueRED },
		"VQFactor":        func(c *Config) { c.VQFactor = 0.8 },
		"Duration":        func(c *Config) { c.Duration = 100 * sim.Second },
		"Warmup":          func(c *Config) { c.Warmup = 100 * sim.Second },
		"Drain":           func(c *Config) { c.Drain = 3 * sim.Second },
		"MaxRetries":      func(c *Config) { c.MaxRetries = 2 },
		"RetryBackoffSec": func(c *Config) { c.RetryBackoffSec = 7 },
		"PrepopulateUtil": func(c *Config) { c.PrepopulateUtil = 0.5 },
		"AC.Signal":       func(c *Config) { c.AC.Design.Signal = admission.Mark },
		"AC.Band":         func(c *Config) { c.AC.Design.Band = admission.OutOfBand },
		"AC.Kind":         func(c *Config) { c.AC.Kind = admission.EarlyReject },
		"AC.Eps":          func(c *Config) { c.AC.Eps = 0.02 },
		"AC.ProbeDur":     func(c *Config) { c.AC.ProbeDur = 3 * sim.Second },
		"AC.StageDur":     func(c *Config) { c.AC.StageDur = 2 * sim.Second },
		"AC.Guard":        func(c *Config) { c.AC.Guard = sim.Second },
		"MS.Target":       func(c *Config) { c.MS.Target = 0.9 },
		"MS.SamplePeriod": func(c *Config) { c.MS.SamplePeriod = 0.2 },
		"MS.WindowPeriods": func(c *Config) {
			c.MS.WindowPeriods = 5
		},
		"PV.WindowSec": func(c *Config) { c.PV.WindowSec = 10 },
		"Policy.Kind":  func(c *Config) { c.Policy.Kind = admission.PolicyAlwaysAdmit },
		"Policy.Bucket": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyTokenBucket, BucketRate: 2}
		},
		"Policy.BucketCost": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyTokenBucket, BucketCost: 3}
		},
		"Policy.Epoch": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, Epoch: 25}
		},
		"Policy.EpsBounds": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, EpsMin: 0.002}
		},
		"Policy.Step": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, Step: 0.5}
		},
		"Policy.TargetLoss": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, TargetLoss: 0.02}
		},
		"Policy.AdaptProbe": func(c *Config) {
			c.Policy = admission.PolicyConfig{Kind: admission.PolicyEpochAdaptive, AdaptProbe: true}
		},
		"Load.Period":     func(c *Config) { c.Load.PeriodSec = 20 },
		"Load.OnFraction": func(c *Config) { c.Load = LoadSpec{PeriodSec: 20, OnFraction: 0.25} },
		"Load.OnFactor":   func(c *Config) { c.Load = LoadSpec{PeriodSec: 20, OnFactor: 3} },
		"Load.OffFactor":  func(c *Config) { c.Load = LoadSpec{PeriodSec: 20, OffFactor: 0.5} },
		"Schedule.Phases": func(c *Config) {
			c.Schedule = Schedule{Phases: []Phase{{Kind: PhaseConst, DurationSec: 10, From: 2, To: 2}}}
		},
		"Schedule.Hold": func(c *Config) {
			c.Schedule = Schedule{Phases: []Phase{{Kind: PhaseConst, DurationSec: 10, From: 2, To: 2}}, Hold: true}
		},
		// Same duration and factors as Schedule.Phases; distinctness pins
		// the Kind component of the phase line.
		"Schedule.Kind": func(c *Config) {
			c.Schedule = Schedule{Phases: []Phase{{Kind: PhaseRamp, DurationSec: 10, From: 2, To: 2}}}
		},
		"Schedule.To": func(c *Config) {
			c.Schedule = Schedule{Phases: []Phase{{Kind: PhaseRamp, DurationSec: 10, From: 2, To: 4}}}
		},
		"Replay": func(c *Config) {
			tr, err := NewReplayTrace([]ReplayArrival{{At: sim.Second, Class: 0}}, "test")
			if err != nil {
				panic(err)
			}
			c.Replay = tr
		},
		"Replay.Content": func(c *Config) {
			tr, err := NewReplayTrace([]ReplayArrival{{At: 2 * sim.Second, Class: 0}}, "test")
			if err != nil {
				panic(err)
			}
			c.Replay = tr
		},
		"Class.Preset": func(c *Config) {
			c.Classes = []ClassSpec{{Preset: trafgen.EXP2, Eps: -1}}
		},
		"Class.Weight": func(c *Config) {
			c.Classes = []ClassSpec{{Preset: trafgen.EXP1, Weight: 2, Eps: -1}}
		},
		"Class.Eps": func(c *Config) {
			c.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: 0.05}}
		},
		"Class.Path+Links": func(c *Config) {
			c.Links = []LinkSpec{{}, {}}
			c.Classes = []ClassSpec{{Preset: trafgen.EXP1, Eps: -1, Path: []int{0, 1}}}
		},
		"Links.Count":    func(c *Config) { c.Links = []LinkSpec{{}, {}} },
		"Hybrid.Enabled": func(c *Config) { c.Hybrid.Enabled = true },
		"Hybrid.Background": func(c *Config) {
			c.Hybrid = HybridConfig{Enabled: true, Background: []int{0}}
		},
		"Hybrid.MaxShare": func(c *Config) { c.Hybrid = HybridConfig{Enabled: true, MaxShare: 0.5} },
		"Link.RateBps":    func(c *Config) { c.Links = []LinkSpec{{RateBps: 5e6}} },
		"Link.Delay":      func(c *Config) { c.Links = []LinkSpec{{Delay: 5 * sim.Millisecond}} },
		"Link.BufferPkts": func(c *Config) { c.Links = []LinkSpec{{BufferPkts: 100}} },
	}
	base := Config{}.Fingerprint()
	seen := map[string]string{base: "base"}
	for name, mutate := range mutations {
		c := Config{}
		mutate(&c)
		fp := c.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %s collides with %s", name, prev)
			continue
		}
		seen[fp] = name
	}
}

// TestFingerprintCoversConfig pins the exact field set of every struct the
// fingerprint hashes (or deliberately skips). Adding a field to any of
// these types fails here until the author decides whether it affects
// results — if it does, extend Config.Fingerprint and bump ResultsVersion;
// if not, document the exclusion there — and then updates this list.
func TestFingerprintCoversConfig(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(Config{}): {"Name", "Classes", "Links", "InterArrival",
			"LifetimeSec", "Load", "Schedule", "Replay", "Method", "AC", "MS", "PV", "Policy",
			"Queue", "VQFactor",
			"Duration", "Warmup", "Drain", "MaxRetries", "RetryBackoffSec",
			"Obs", "Cache", "Hybrid", "PrepopulateUtil", "Seed"},
		reflect.TypeOf(ClassSpec{}):        {"Name", "Preset", "Weight", "Eps", "Path"},
		reflect.TypeOf(LinkSpec{}):         {"RateBps", "Delay", "BufferPkts"},
		reflect.TypeOf(LoadSpec{}):         {"PeriodSec", "OnFraction", "OnFactor", "OffFactor"},
		reflect.TypeOf(Schedule{}):         {"Phases", "Hold"},
		reflect.TypeOf(Phase{}):            {"Kind", "DurationSec", "From", "To"},
		reflect.TypeOf(ReplayTrace{}):      {"arrivals", "digest", "source"},
		reflect.TypeOf(ReplayArrival{}):    {"At", "Class"},
		reflect.TypeOf(PassiveConfig{}):    {"WindowSec"},
		reflect.TypeOf(HybridConfig{}):     {"Enabled", "Background", "MaxShare"},
		reflect.TypeOf(admission.Config{}): {"Design", "Kind", "Eps", "ProbeDur", "StageDur", "Guard"},
		reflect.TypeOf(admission.PolicyConfig{}): {"Kind",
			"BucketCap", "BucketRate", "BucketCost",
			"Epoch", "EpsMin", "EpsMax", "Step", "TargetLoss",
			"AdaptProbe", "ProbeMin", "ProbeMax"},
		reflect.TypeOf(admission.Design{}): {"Signal", "Band"},
		reflect.TypeOf(mbac.Config{}):      {"Target", "SamplePeriod", "WindowPeriods"},
		reflect.TypeOf(trafgen.Preset{}):   {"Name", "TokenRate", "BucketBytes", "PktSize", "AvgRate", "build"},
	}
	for typ, fields := range want {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%v fields changed:\n got %v\nwant %v\nIf the new field affects simulation results, extend Config.Fingerprint and bump ResultsVersion; otherwise document the exclusion in the Fingerprint doc comment. Then update this pin.", typ, got, fields)
		}
	}
}
