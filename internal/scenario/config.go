// Package scenario assembles simulator, topology, traffic sources, and an
// admission control method into the experiments of Section 4 of the paper:
// Poisson flow arrivals with exponential lifetimes offered to a single
// congested link (or a multi-hop backbone), admitted by endpoint probing or
// by the Measured Sum MBAC, with the paper's metrics — utilization of the
// allocated share by data packets, data packet loss probability, and
// per-class flow blocking probability.
//
// Concurrency: a single run is strictly single-threaded, but distinct
// runs are independent — a Runner and everything it reaches (its Sim, its
// packet pool, its RNG streams) is per-run state, and the package-level
// tables it consults (trafgen presets, admission designs) are immutable
// after init. RunSeedsParallel and the experiment sweep engine rely on
// this to execute runs on concurrent goroutines.
package scenario

import (
	"fmt"
	"math"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/mbac"
	"eac/internal/obs"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

// Method selects the admission control machinery.
type Method uint8

// Admission methods.
const (
	// EAC is endpoint admission control (the paper's designs).
	EAC Method = iota
	// MBAC is the router-based Measured Sum benchmark.
	MBAC
	// None admits every flow (used for calibration and tests).
	None
	// Passive is the edge-router variant the paper attributes to
	// Cetinkaya & Knightly [5]: the endpoint (an egress router) admits
	// flows based on passively monitored recent loss instead of active
	// probing, avoiding the multi-second set-up delay. Flows start
	// instantly when the monitored loss fraction is at or below AC.Eps.
	Passive
)

func (m Method) String() string {
	switch m {
	case MBAC:
		return "MBAC"
	case None:
		return "none"
	case Passive:
		return "passive"
	default:
		return "EAC"
	}
}

// QueueKind selects the buffering discipline of the congested links.
type QueueKind uint8

// Queue kinds.
const (
	// QueuePushout is the default: strict-priority bands with a shared
	// buffer and probe push-out (Section 3.1).
	QueuePushout QueueKind = iota
	// QueueRED uses Random Early Detection. Only meaningful for in-band
	// designs (RED keeps a single FIFO); the paper used drop-tail "for
	// ease of simulation" and conjectured RED would not change the
	// results.
	QueueRED
)

// PassiveConfig parameterizes passive (egress-monitor) admission.
type PassiveConfig struct {
	// WindowSec is the sliding loss-measurement window (default 5 s,
	// matching the active designs' probe duration).
	WindowSec float64
}

// ClassSpec is one traffic class in the offered mix.
type ClassSpec struct {
	Name   string
	Preset trafgen.Preset
	// Weight is the probability mass of this class in the aggregate
	// Poisson arrival process (normalized across classes).
	Weight float64
	// Eps, if non-negative, overrides Admission.Eps for this class
	// (Table 3's heterogeneous-threshold experiment). Negative means
	// "use the scenario-wide threshold".
	Eps float64
	// Path lists the indices of the congested links this class's flows
	// traverse, in order. Empty means link 0 only.
	Path []int
}

// LoadSpec modulates the aggregate flow-arrival rate over time: a square
// wave alternating an on phase (arrival rate scaled by OnFactor) and an
// off phase (scaled by OffFactor), repeating every PeriodSec. The runner
// realizes it by Lewis–Shedler thinning: arrivals are drawn at the peak
// rate and kept with probability factor(now)/max(factor), which is exact
// for piecewise-constant intensities. The zero value (PeriodSec == 0)
// disables modulation and leaves the stationary process untouched.
type LoadSpec struct {
	// PeriodSec is the on/off cycle length, simulated seconds.
	PeriodSec float64
	// OnFraction is the fraction of each period spent in the on phase
	// (default 0.5).
	OnFraction float64
	// OnFactor scales the mean arrival rate during the on phase (default
	// 2); OffFactor scales it during the off phase (default 0 — silence).
	// The defaults preserve the stationary process's mean offered load.
	OnFactor, OffFactor float64
}

// Active reports whether the spec modulates arrivals at all.
func (l LoadSpec) Active() bool { return l.PeriodSec > 0 }

// withDefaults resolves an active spec's unset knobs (inactive specs stay
// zero so unmodulated configs fingerprint identically).
func (l LoadSpec) withDefaults() LoadSpec {
	if !l.Active() {
		return l
	}
	if l.OnFraction == 0 {
		l.OnFraction = 0.5
	}
	// Default the factors only when BOTH are zero (the fully-unset spec).
	// An explicit OnFactor 0 with a positive OffFactor is a valid inverted
	// duty cycle — silence during the on phase — and clobbering it with
	// the default 2 silently changed the workload (pinned by
	// TestLoadInvertedWave).
	if l.OnFactor == 0 && l.OffFactor == 0 {
		l.OnFactor = 2
	}
	return l
}

// HybridConfig selects the hybrid fluid/packet engine: the listed
// background classes' data phases are carried as piecewise-constant fluid
// rates on their path links (admission probing stays packet-level), so
// million-host operating points run in milliseconds while the foreground
// keeps packet-accurate probe dynamics. See netsim.FluidBackground for
// the link-level contract and internal/conformance's hybrid crossval for
// the calibrated agreement envelopes.
type HybridConfig struct {
	// Enabled turns the hybrid engine on. The zero value keeps the pure
	// packet path byte-identical to prior releases.
	Enabled bool
	// Background lists the class indices whose data phase is fluid.
	// Empty means every class: all data is fluid, only probes are packets.
	Background []int
	// MaxShare caps the fluid's share of each link's capacity — the
	// foreground always keeps at least (1-MaxShare)*C of serialization
	// rate (default 0.95).
	MaxShare float64
}

// Active reports whether the hybrid engine is on.
func (h HybridConfig) Active() bool { return h.Enabled }

// withDefaults resolves an enabled config's unset knobs (disabled configs
// stay zero so pure-packet configs fingerprint identically).
func (h HybridConfig) withDefaults() HybridConfig {
	if !h.Enabled {
		return h
	}
	if h.MaxShare == 0 {
		h.MaxShare = 0.95
	}
	return h
}

// LinkSpec describes one congested link.
type LinkSpec struct {
	RateBps    float64  // allocated share of the admission-controlled class
	Delay      sim.Time // propagation delay
	BufferPkts int      // shared buffer, packets
}

// Config is a full experiment description. Zero fields default to the
// paper's basic scenario (Section 4.1).
type Config struct {
	Name    string
	Classes []ClassSpec
	Links   []LinkSpec

	// InterArrival is the mean of the aggregate Poisson flow
	// inter-arrival time, seconds (paper tau).
	InterArrival float64
	// LifetimeSec is the mean exponential flow lifetime (default 300 s).
	LifetimeSec float64
	// Load, when active, modulates the arrival rate over time (the
	// nonstationary on/off workload; see LoadSpec). The zero value keeps
	// the stationary Poisson process, byte-identical to prior releases.
	Load LoadSpec
	// Schedule, when active, drives the arrival rate through a sequence of
	// composable load phases (constant, ramp, spike, sawtooth, sine; see
	// Schedule and ParseSchedule), realized by Lewis–Shedler thinning
	// against the schedule's global peak on the same dedicated "load" RNG
	// stream LoadSpec uses. Mutually exclusive with Load and Replay.
	Schedule Schedule
	// Replay, when non-nil, replaces the Poisson arrival process entirely:
	// flow arrival times and classes are re-driven verbatim from a
	// recorded obs JSONL trace (see ReplayTrace and LoadReplay), so a
	// replayed run with the same seed and parameters reproduces the
	// recorded run's aggregate metrics byte-for-byte. Mutually exclusive
	// with Load and Schedule.
	Replay *ReplayTrace

	Method Method
	AC     admission.Config // used when Method == EAC
	MS     mbac.Config      // used when Method == MBAC
	// PV configures passive admission (Method == Passive).
	PV PassiveConfig
	// Policy selects the admission policy layered over the probing
	// machinery (Method == EAC): the zero value is the paper's static-ε
	// rule, byte-identical to prior releases; other kinds add token-bucket
	// rate costs or epoch-based ε adaptation (see admission.PolicyConfig).
	Policy admission.PolicyConfig

	// Queue selects the router buffering discipline for the
	// admission-controlled class.
	Queue QueueKind

	// VQFactor is the virtual queue speed as a fraction of the link rate
	// (default 0.9), used by marking designs.
	VQFactor float64

	// Duration is total simulated time; Warmup is discarded (defaults
	// 14000 s and 2000 s, the paper's choices). Drain is subtracted from
	// the end of the packet-accounting window so in-flight packets are
	// not miscounted as lost (default 2 s).
	Duration, Warmup, Drain sim.Time

	// MaxRetries, if positive, lets a rejected flow retry admission with
	// exponential back-off (footnote 10 of the paper: "rejected flows
	// should use exponential back-off before retrying"). The first retry
	// waits ~RetryBackoffSec, doubling per attempt, with +/-50% jitter.
	// Blocking statistics count each flow once, by its final outcome.
	MaxRetries int
	// RetryBackoffSec is the base back-off (default 5 s).
	RetryBackoffSec float64

	// Obs configures the run's observability collector (internal/obs):
	// per-queue telemetry time series sampled on a sim-time interval, a
	// ring-buffered packet/event trace exported as JSONL, and admission
	// decision events. The zero value keeps observability fully disabled
	// — no collector is constructed, the hot paths see only nil checks,
	// and all metrics and logs are byte-identical to an unobserved run.
	// Each seed's run constructs its own collector from this value, so
	// parallel seed runs stay independent.
	Obs obs.Config

	// Cache, if non-nil, is a content-addressed result store consulted by
	// Run and Workspace.Run: a run whose Fingerprint (resolved config +
	// seed + ResultsVersion) is already stored returns the cached Metrics
	// without simulating, and a computed run is stored for next time.
	// Corrupt or undecodable entries are dropped and recomputed silently.
	// The field itself is excluded from the fingerprint, and it is ignored
	// while Obs is active — a cached run cannot produce the observability
	// artifacts the caller asked for.
	Cache *cache.Store

	// Hybrid, when enabled, carries the configured background classes'
	// data phases as per-link fluid rates instead of packets (the hybrid
	// fluid/packet engine; see HybridConfig). Disabled by default — the
	// zero value leaves the packet path byte-identical. Requires Method
	// EAC or None (MBAC and Passive measure data packets the fluid no
	// longer sends).
	Hybrid HybridConfig

	// PrepopulateUtil, if positive, seeds the simulation at time zero
	// with enough already-admitted flows to load link 0 to roughly this
	// average utilization. Exponential lifetimes are memoryless, so the
	// seeded population is a valid stationary sample and lets shortened
	// runs (with warmups much smaller than the paper's 2000 s) start near
	// steady state. Seeded flows bypass admission and are excluded from
	// blocking statistics (their packets still count).
	PrepopulateUtil float64

	Seed uint64
}

// WithDefaults returns the config with paper defaults filled in. The
// Classes and Links slices are copied before their elements are filled, so
// the caller's config is never modified and concurrent runs may resolve
// one shared config.
func (c Config) WithDefaults() Config {
	if len(c.Classes) == 0 {
		c.Classes = []ClassSpec{{Name: "EXP1", Preset: trafgen.EXP1, Weight: 1, Eps: -1}}
	} else {
		c.Classes = append([]ClassSpec(nil), c.Classes...)
	}
	for i := range c.Classes {
		if c.Classes[i].Weight == 0 {
			c.Classes[i].Weight = 1
		}
		if c.Classes[i].Name == "" {
			c.Classes[i].Name = c.Classes[i].Preset.Name
		}
	}
	if len(c.Links) == 0 {
		c.Links = []LinkSpec{{}}
	} else {
		c.Links = append([]LinkSpec(nil), c.Links...)
	}
	for i := range c.Links {
		if c.Links[i].RateBps == 0 {
			c.Links[i].RateBps = 10e6
		}
		if c.Links[i].Delay == 0 {
			c.Links[i].Delay = 20 * sim.Millisecond
		}
		if c.Links[i].BufferPkts == 0 {
			c.Links[i].BufferPkts = 200
		}
	}
	if c.InterArrival == 0 {
		c.InterArrival = 3.5
	}
	if c.LifetimeSec == 0 {
		c.LifetimeSec = 300
	}
	if c.VQFactor == 0 {
		c.VQFactor = 0.9
	}
	if c.Duration == 0 {
		c.Duration = 14000 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 2000 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 2 * sim.Second
	}
	c.AC = c.AC.WithDefaults()
	c.Policy = c.Policy.WithDefaults()
	c.Load = c.Load.withDefaults()
	c.Hybrid = c.Hybrid.withDefaults()
	if c.Method == MBAC && c.MS.Target == 0 {
		c.MS.Target = 0.95
	}
	if c.PV.WindowSec == 0 {
		c.PV.WindowSec = 5
	}
	if c.RetryBackoffSec == 0 {
		c.RetryBackoffSec = 5
	}
	return c
}

// Validate reports configuration errors a zero default cannot fix.
func (c Config) Validate() error {
	if c.InterArrival < 0 || c.LifetimeSec < 0 {
		return fmt.Errorf("scenario: negative time parameter")
	}
	if c.Warmup+c.Drain >= c.Duration && c.Duration > 0 {
		return fmt.Errorf("scenario: warmup+drain (%v) must be shorter than duration (%v)", c.Warmup+c.Drain, c.Duration)
	}
	total := 0.0
	for _, cl := range c.Classes {
		if cl.Weight < 0 {
			return fmt.Errorf("scenario: class %q has negative weight", cl.Name)
		}
		total += cl.Weight
		for _, li := range cl.Path {
			if li < 0 || li >= len(c.Links) {
				return fmt.Errorf("scenario: class %q path references link %d of %d", cl.Name, li, len(c.Links))
			}
		}
	}
	if len(c.Classes) > 0 && total <= 0 {
		return fmt.Errorf("scenario: class weights sum to zero")
	}
	if c.Method == EAC {
		if c.AC.Design.Signal == admission.VDrop && c.AC.Design.Band != admission.OutOfBand {
			return fmt.Errorf("scenario: virtual dropping requires out-of-band probing (footnote 14)")
		}
		if c.Queue == QueueRED && c.AC.Design.Band == admission.OutOfBand {
			return fmt.Errorf("scenario: RED keeps a single FIFO and cannot host out-of-band probes")
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	if c.Policy.Kind != admission.PolicyStatic && c.Method != EAC {
		return fmt.Errorf("scenario: admission policy %s requires method EAC", c.Policy.Kind)
	}
	if c.Load.Active() {
		if c.Load.OnFraction <= 0 || c.Load.OnFraction > 1 {
			return fmt.Errorf("scenario: load OnFraction must be in (0, 1]")
		}
		if c.Load.OnFactor < 0 || c.Load.OffFactor < 0 {
			return fmt.Errorf("scenario: negative load factor")
		}
		if c.Load.OnFactor == 0 && c.Load.OffFactor == 0 {
			return fmt.Errorf("scenario: load modulation with both factors zero offers no traffic")
		}
	}
	if c.Schedule.Active() {
		if c.Load.Active() {
			return fmt.Errorf("scenario: Load and Schedule are mutually exclusive")
		}
		if err := c.Schedule.Validate(); err != nil {
			return err
		}
	}
	if c.Replay != nil {
		if c.Load.Active() || c.Schedule.Active() {
			return fmt.Errorf("scenario: Replay is mutually exclusive with Load and Schedule")
		}
		if mc := c.Replay.MaxClass(); mc >= len(c.Classes) {
			return fmt.Errorf("scenario: replay trace references class %d but the config has %d classes", mc, len(c.Classes))
		}
	}
	if c.Hybrid.Active() {
		if c.Method != EAC && c.Method != None {
			return fmt.Errorf("scenario: hybrid engine requires method EAC or none (%s measures data packets the fluid does not send)", c.Method)
		}
		if c.Hybrid.MaxShare <= 0 || c.Hybrid.MaxShare > 1 {
			return fmt.Errorf("scenario: hybrid MaxShare must be in (0, 1], got %g", c.Hybrid.MaxShare)
		}
		for _, ci := range c.Hybrid.Background {
			if ci < 0 || ci >= len(c.Classes) {
				return fmt.Errorf("scenario: hybrid background references class %d of %d", ci, len(c.Classes))
			}
		}
	}
	return nil
}

// ClassMetrics aggregates per-class results.
type ClassMetrics struct {
	Name     string
	Arrived  int64 // decided flows arriving after warmup
	Accepted int64
	Blocked  int64
	DataSent int64 // packets emitted in the accounting window
	DataLost int64
}

// BlockingProb returns the class blocking probability.
func (cm ClassMetrics) BlockingProb() float64 {
	if cm.Arrived == 0 {
		return 0
	}
	return float64(cm.Blocked) / float64(cm.Arrived)
}

// LossProb returns the class data-loss probability.
func (cm ClassMetrics) LossProb() float64 {
	if cm.DataSent == 0 {
		return 0
	}
	return float64(cm.DataLost) / float64(cm.DataSent)
}

// LinkMetrics reports one link's post-warmup counters.
type LinkMetrics struct {
	Utilization   float64 // data share of the allocated bandwidth
	ProbeShare    float64 // probe share of the allocated bandwidth
	DataLossProb  float64 // fraction of arriving data packets dropped here
	ProbeLossProb float64
}

// Metrics is the outcome of one run.
type Metrics struct {
	// Utilization is the data utilization of link 0 (the single
	// congested link in one-link scenarios).
	Utilization float64
	// DataLossProb is the end-to-end data packet loss probability across
	// all flows, measured in the accounting window.
	DataLossProb float64
	// BlockingProb is the overall flow blocking probability.
	BlockingProb float64
	Classes      []ClassMetrics
	Links        []LinkMetrics
	// ProbeShare is link 0's bandwidth fraction consumed by probes.
	ProbeShare float64
	// Decided counts flows with an admission decision after warmup.
	Decided int64
	// Retries counts admission re-attempts scheduled by the retry policy.
	Retries int64
	// MeanDelaySec and P99DelaySec summarize end-to-end data packet
	// delay (propagation + queueing) in the accounting window. The paper
	// argues queueing delay stays small because the admission-controlled
	// queue is kept shallow; these fields let experiments verify that.
	MeanDelaySec, P99DelaySec float64
	// MeanEps is the mean admission threshold in force across the EAC
	// flows decided in the accounting window (each flow contributes the ε
	// its final decision was made against). Under the static policy it
	// equals the configured ε; under the epoch-adaptive policy it traces
	// the adapted threshold, which is what the flash_crowd experiment
	// plots through a spike. Zero for non-EAC methods.
	MeanEps float64
}

// Summary formats the headline numbers.
func (m Metrics) Summary() string {
	return fmt.Sprintf("util=%.3f loss=%.2e blocking=%.3f probe-share=%.3f",
		m.Utilization, m.DataLossProb, m.BlockingProb, m.ProbeShare)
}

// MultiMetrics averages metrics over seeds.
type MultiMetrics struct {
	Runs []Metrics
	// Mean holds per-field means; Classes and Links are averaged
	// elementwise.
	Mean Metrics
	// UtilStderr and LossStderr are standard errors of the headline
	// means across runs.
	UtilStderr, LossStderr float64
}

// Aggregate combines per-seed run metrics into a MultiMetrics. The runs
// slice is retained as MultiMetrics.Runs; averaging is order-sensitive
// only through float summation, so callers that want reproducible output
// must pass runs in seed order (RunSeeds and the experiment engine do).
func Aggregate(runs []Metrics) MultiMetrics {
	mm := MultiMetrics{Runs: runs}
	if len(runs) == 0 {
		return mm
	}
	var util, loss, block, probe, decided, retries, mdel, p99, meps math64
	mm.Mean.Classes = make([]ClassMetrics, len(runs[0].Classes))
	mm.Mean.Links = make([]LinkMetrics, len(runs[0].Links))
	for i := range mm.Mean.Classes {
		mm.Mean.Classes[i].Name = runs[0].Classes[i].Name
	}
	for _, r := range runs {
		util.add(r.Utilization)
		loss.add(r.DataLossProb)
		block.add(r.BlockingProb)
		probe.add(r.ProbeShare)
		decided.add(float64(r.Decided))
		retries.add(float64(r.Retries))
		mdel.add(r.MeanDelaySec)
		p99.add(r.P99DelaySec)
		meps.add(r.MeanEps)
		for i := range r.Classes {
			mm.Mean.Classes[i].Arrived += r.Classes[i].Arrived
			mm.Mean.Classes[i].Accepted += r.Classes[i].Accepted
			mm.Mean.Classes[i].Blocked += r.Classes[i].Blocked
			mm.Mean.Classes[i].DataSent += r.Classes[i].DataSent
			mm.Mean.Classes[i].DataLost += r.Classes[i].DataLost
		}
		for i := range r.Links {
			mm.Mean.Links[i].Utilization += r.Links[i].Utilization / float64(len(runs))
			mm.Mean.Links[i].ProbeShare += r.Links[i].ProbeShare / float64(len(runs))
			mm.Mean.Links[i].DataLossProb += r.Links[i].DataLossProb / float64(len(runs))
			mm.Mean.Links[i].ProbeLossProb += r.Links[i].ProbeLossProb / float64(len(runs))
		}
	}
	mm.Mean.Utilization = util.avg()
	mm.Mean.DataLossProb = loss.avg()
	mm.Mean.BlockingProb = block.avg()
	mm.Mean.ProbeShare = probe.avg()
	mm.Mean.Decided = int64(decided.avg() * float64(len(runs)))
	mm.Mean.Retries = int64(retries.avg() * float64(len(runs)))
	mm.Mean.MeanDelaySec = mdel.avg()
	mm.Mean.P99DelaySec = p99.avg()
	mm.Mean.MeanEps = meps.avg()
	mm.UtilStderr = util.stderr()
	mm.LossStderr = loss.stderr()
	return mm
}

// math64 is a tiny Welford helper local to aggregation.
type math64 struct {
	n    int
	mean float64
	m2   float64
}

func (m *math64) add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

func (m *math64) avg() float64 { return m.mean }
func (m *math64) stderr() float64 {
	if m.n < 2 {
		return 0
	}
	return math.Sqrt(m.m2/float64(m.n-1)) / math.Sqrt(float64(m.n))
}
