// Package obs is the simulation observability layer: per-queue telemetry
// time series, a ring-buffered packet/event trace, and structured run
// manifests that make every experiment an inspectable artifact.
//
// The layer is designed around one hard requirement: zero overhead and
// byte-identical simulation output when disabled. A nil *Collector is the
// default and every method is nil-safe; a constructed-but-disabled
// collector (Config.Enabled == false) is equally inert. Producers guard
// their hot paths with a single pointer check (netsim.Link.Tap) or call
// the nil-safe methods directly (scenario.Runner), so the default
// configuration adds no events, no allocations, and no output changes —
// preserving the determinism guarantees of the parallel sweep engine.
//
// When enabled, a collector gathers three kinds of telemetry:
//
//   - Per-link/queue time series, sampled on a configurable sim-time
//     interval: queue depth, utilization over the interval, cumulative
//     arrival/drop/mark/sent counters split by packet kind, virtual-queue
//     shadow backlog, and the active-flow count. Exported as CSV.
//   - A packet/event trace: enqueue, dequeue, drop, and mark events plus
//     admission decisions, with sim timestamps, held in a fixed-capacity
//     ring buffer (oldest events discarded) and exported as JSONL.
//   - Counters for admission decisions (admitted/rejected).
//
// Run manifests (manifest.go) tie the artifacts together: one JSON file
// per invocation recording configuration, seeds, worker count, wall-clock
// and summary metrics, so a results directory is self-describing.
package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"eac/internal/sim"
	"eac/internal/stats"
)

// Config selects which telemetry a run collects and where the artifacts
// land. The zero value is fully inactive: no collector is constructed and
// the simulation's hot paths see only nil checks.
type Config struct {
	// Enabled is the master switch. A false value with other fields set
	// still constructs a Collector (so callers can hold one), but every
	// recording method is a no-op and Flush writes nothing.
	Enabled bool
	// Dir is the artifact output directory (default "." at flush time).
	Dir string
	// Label is the artifact filename stem (default "run"). Per-run files
	// are suffixed with the seed: <Label>-s<seed>-series.csv etc.
	Label string
	// MetricsInterval is the sim-time sampling period of the per-queue
	// time series; 0 disables the series.
	MetricsInterval sim.Time
	// TraceCapacity is the event-trace ring size in events; 0 disables
	// the trace. When the ring is full the oldest events are discarded
	// (the manifest and trace writer report how many).
	TraceCapacity int
	// TracePath, if set, overrides the trace artifact path. Intended for
	// single-seed runs; multi-seed runs must leave it empty so the
	// per-seed default naming keeps files distinct.
	TracePath string
	// PerfettoPath, if set, additionally exports the probe-lifecycle
	// spans as Chrome/Perfetto trace-event JSON to this path (open with
	// ui.perfetto.dev or chrome://tracing). Spans ride with the event
	// trace, so this requires TraceCapacity > 0. Single-seed runs only.
	PerfettoPath string
}

// Active reports whether a collector should be constructed at all — any
// non-zero Config is "active" even when Enabled is false, so tests can
// exercise the disabled collector's no-op guards.
func (c Config) Active() bool { return c != Config{} }

func (c Config) label() string {
	if c.Label == "" {
		return "run"
	}
	return c.Label
}

func (c Config) dir() string {
	if c.Dir == "" {
		return "."
	}
	return c.Dir
}

// SeriesPath returns the per-queue time-series CSV path for one seed, or
// "" when the series is disabled.
func (c Config) SeriesPath(seed uint64) string {
	if !c.Enabled || c.MetricsInterval <= 0 {
		return ""
	}
	return filepath.Join(c.dir(), fmt.Sprintf("%s-s%d-series.csv", c.label(), seed))
}

// TraceFile returns the JSONL event-trace path for one seed, or "" when
// the trace is disabled.
func (c Config) TraceFile(seed uint64) string {
	if !c.Enabled || c.TraceCapacity <= 0 {
		return ""
	}
	if c.TracePath != "" {
		return c.TracePath
	}
	return filepath.Join(c.dir(), fmt.Sprintf("%s-s%d-trace.jsonl", c.label(), seed))
}

// SpansPath returns the probe-lifecycle span JSONL path for one seed, or
// "" when spans are disabled. Spans ride with the event trace: they are
// collected (and written) exactly when tracing is on.
func (c Config) SpansPath(seed uint64) string {
	if !c.Enabled || c.TraceCapacity <= 0 {
		return ""
	}
	return filepath.Join(c.dir(), fmt.Sprintf("%s-s%d-spans.jsonl", c.label(), seed))
}

// HistPath returns the log-bucket histogram JSON path (per-class delay
// and per-link queue-depth distributions) for one seed, or "" when the
// collector is disabled.
func (c Config) HistPath(seed uint64) string {
	if !c.Enabled {
		return ""
	}
	return filepath.Join(c.dir(), fmt.Sprintf("%s-s%d-hist.json", c.label(), seed))
}

// PerfettoFile returns the Perfetto export path, or "" when not
// requested or when spans are unavailable (no trace).
func (c Config) PerfettoFile() string {
	if !c.Enabled || c.TraceCapacity <= 0 {
		return ""
	}
	return c.PerfettoPath
}

// ManifestPath returns the run-manifest path for this configuration.
func (c Config) ManifestPath() string {
	return filepath.Join(c.dir(), c.label()+"-manifest.json")
}

// ArtifactPaths returns the series and trace paths one seed's run will
// write ("" for disabled parts).
func (c Config) ArtifactPaths(seed uint64) (series, trace string) {
	return c.SeriesPath(seed), c.TraceFile(seed)
}

// AllArtifactPaths returns every per-seed artifact path this
// configuration writes, in flush order (series, trace, spans, hist),
// skipping disabled parts. The Perfetto export is not per-seed and is
// excluded.
func (c Config) AllArtifactPaths(seed uint64) []string {
	var out []string
	for _, p := range []string{
		c.SeriesPath(seed), c.TraceFile(seed), c.SpansPath(seed), c.HistPath(seed),
	} {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Sample is one time-series point for one link, filled by the producer
// (scenario.Runner reads the link's counters) and appended verbatim.
type Sample struct {
	T           float64 // sim time, seconds
	Link        int     // link index (see Collector.LinkName)
	Depth       int     // real queue occupancy in packets, excluding in service
	Busy        bool    // a packet is on the wire
	ActiveFlows int     // flows currently in their data phase
	Util        float64 // data utilization of the link over the elapsed interval
	VQBacklog   int64   // virtual-queue shadow backlog, bytes (0 without a marker)

	// Cumulative link counters since the last stats reset, indexed by
	// packet kind (netsim.Data, netsim.Probe).
	Arrived, Dropped, Marked, SentPkts [2]int64

	// Hybrid-engine fluid trajectory (zero without a fluid background):
	// FluidBg is the offered background rate in bits/s, FluidMark the
	// combined drop-or-mark probability the fluid presents to foreground
	// packets at this instant.
	FluidBg, FluidMark float64
}

// Decisions aggregates admission outcomes observed by the collector.
type Decisions struct {
	Admitted, Rejected int64
}

// Collector gathers one run's telemetry. It is strictly single-run,
// single-goroutine state — parallel seed runs each construct their own —
// and a nil *Collector is the canonical "disabled" value.
type Collector struct {
	cfg     Config
	seed    uint64
	links   []string
	classes []string
	sams    []Sample
	trace   ring
	dec     Decisions
	dur     sim.Time // run duration; clamps open spans in exports

	// Log-bucket distributions (stats.LogHist: mergeable across seeds).
	delayH []stats.LogHist // per class: end-to-end data-packet delay, ns
	depth  []stats.LogHist // per link: queue occupancy after each accepted enqueue

	// Probe-lifecycle spans, one per flow, collected while tracing.
	spans   []spanRec
	spanIdx []int32 // flow id -> index+1 into spans (0 = no span yet)
}

// New returns a collector for cfg, or nil when cfg is fully zero. The
// seed tags artifact filenames so multi-seed runs do not collide.
func New(cfg Config, seed uint64) *Collector {
	if !cfg.Active() {
		return nil
	}
	c := &Collector{cfg: cfg, seed: seed}
	if cfg.Enabled && cfg.TraceCapacity > 0 {
		c.trace.buf = make([]traceRec, cfg.TraceCapacity)
	}
	return c
}

// Enabled reports whether the collector records anything.
func (c *Collector) Enabled() bool { return c != nil && c.cfg.Enabled }

// Sampling reports whether the time series is being collected.
func (c *Collector) Sampling() bool { return c.Enabled() && c.cfg.MetricsInterval > 0 }

// Interval returns the configured sampling period.
func (c *Collector) Interval() sim.Time {
	if c == nil {
		return 0
	}
	return c.cfg.MetricsInterval
}

// Tracing reports whether the packet/event trace is being collected.
func (c *Collector) Tracing() bool { return c.Enabled() && len(c.trace.buf) > 0 }

// RegisterLink declares one link and returns its tap for packet-level
// events, or nil when the collector is disabled (so links keep their
// zero-overhead nil check).
func (c *Collector) RegisterLink(name string) *LinkTap {
	if !c.Enabled() {
		return nil
	}
	c.links = append(c.links, name)
	c.depth = append(c.depth, stats.LogHist{})
	return &LinkTap{c: c, link: int16(len(c.links) - 1)}
}

// LinkName resolves a registered link index ("" if out of range).
func (c *Collector) LinkName(i int) string {
	if c == nil || i < 0 || i >= len(c.links) {
		return ""
	}
	return c.links[i]
}

// RegisterClass declares one traffic class (in class-index order) so
// delay histograms and span exports can carry class names. No-op when
// disabled.
func (c *Collector) RegisterClass(name string) {
	if !c.Enabled() {
		return
	}
	c.classes = append(c.classes, name)
	c.delayH = append(c.delayH, stats.LogHist{})
}

// ClassName resolves a registered class index ("" if out of range).
func (c *Collector) ClassName(i int) string {
	if c == nil || i < 0 || i >= len(c.classes) {
		return ""
	}
	return c.classes[i]
}

// SetDuration records the run's sim-time length; exports use it to clamp
// spans still open at run end. No-op when disabled.
func (c *Collector) SetDuration(d sim.Time) {
	if c.Enabled() {
		c.dur = d
	}
}

// Delay records one delivered data packet's end-to-end window delay into
// the owning class's log-bucket histogram. No-op when disabled.
func (c *Collector) Delay(class int, d sim.Time) {
	if c == nil || !c.cfg.Enabled {
		return
	}
	if class >= 0 && class < len(c.delayH) {
		c.delayH[class].Add(int64(d))
	}
}

// DelayHist returns the per-class delay histograms (ns buckets), indexed
// like RegisterClass calls. Nil when disabled.
func (c *Collector) DelayHist() []stats.LogHist {
	if c == nil {
		return nil
	}
	return c.delayH
}

// DepthHist returns the per-link queue-depth histograms, indexed like
// RegisterLink calls. Nil when disabled.
func (c *Collector) DepthHist() []stats.LogHist {
	if c == nil {
		return nil
	}
	return c.depth
}

// AddSample appends one time-series point. No-op unless sampling.
func (c *Collector) AddSample(s Sample) {
	if !c.Sampling() {
		return
	}
	c.sams = append(c.sams, s)
}

// Samples returns the collected time series (nil when disabled).
func (c *Collector) Samples() []Sample {
	if c == nil {
		return nil
	}
	return c.sams
}

// Decision records one admission outcome: counters always, plus a trace
// event when tracing. frac is the measured bad-packet fraction of the
// deciding probe stage (0 for methods that do not probe).
func (c *Collector) Decision(now sim.Time, flow, class int, accepted bool, attempt int, frac float64) {
	if !c.Enabled() {
		return
	}
	ev := evReject
	if accepted {
		c.dec.Admitted++
		ev = evAdmit
	} else {
		c.dec.Rejected++
	}
	if len(c.trace.buf) > 0 {
		c.trace.push(traceRec{
			at: now, ev: ev, link: -1, flow: int32(flow),
			kind: uint8(class), a: int64(attempt), frac: float32(frac),
		})
		s := c.span(flow)
		s.class = int32(class)
		s.decided = true
		s.accepted = accepted
		s.decidedAt = now
		s.attempts = int32(attempt)
		s.frac = float32(frac)
	}
}

// DecisionCounts returns the admission counters seen so far.
func (c *Collector) DecisionCounts() Decisions {
	if c == nil {
		return Decisions{}
	}
	return c.dec
}

// WriteSeries renders the time series as CSV.
func (c *Collector) WriteSeries(w io.Writer) error {
	if _, err := io.WriteString(w, "t_s,link,depth,busy,active_flows,util,vq_backlog_bytes,"+
		"data_arrived,data_dropped,data_marked,data_sent_pkts,"+
		"probe_arrived,probe_dropped,probe_marked,probe_sent_pkts,"+
		"fluid_bg_bps,fluid_mark\n"); err != nil {
		return err
	}
	for _, s := range c.Samples() {
		busy := 0
		if s.Busy {
			busy = 1
		}
		_, err := fmt.Fprintf(w, "%.6f,%s,%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.0f,%.6f\n",
			s.T, c.LinkName(s.Link), s.Depth, busy, s.ActiveFlows, s.Util, s.VQBacklog,
			s.Arrived[0], s.Dropped[0], s.Marked[0], s.SentPkts[0],
			s.Arrived[1], s.Dropped[1], s.Marked[1], s.SentPkts[1],
			s.FluidBg, s.FluidMark)
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush writes the enabled artifacts (series CSV, event trace) into the
// configured directory and returns the paths written. A nil or disabled
// collector flushes nothing.
func (c *Collector) Flush() ([]string, error) {
	if !c.Enabled() {
		return nil, nil
	}
	var paths []string
	write := func(path string, render func(io.Writer) error) error {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if p := c.cfg.SeriesPath(c.seed); p != "" {
		if err := write(p, c.WriteSeries); err != nil {
			return paths, err
		}
	}
	if p := c.cfg.TraceFile(c.seed); p != "" {
		if err := write(p, c.WriteTrace); err != nil {
			return paths, err
		}
	}
	if p := c.cfg.SpansPath(c.seed); p != "" {
		if err := write(p, c.WriteSpans); err != nil {
			return paths, err
		}
	}
	if p := c.cfg.HistPath(c.seed); p != "" {
		if err := write(p, c.WriteHist); err != nil {
			return paths, err
		}
	}
	if p := c.cfg.PerfettoFile(); p != "" {
		if err := write(p, c.WritePerfetto); err != nil {
			return paths, err
		}
	}
	return paths, nil
}

// LinkTap feeds one link's packet-level events into the collector's
// trace. A nil tap (disabled observability) is the hot-path default;
// links guard every call with a single pointer check.
type LinkTap struct {
	c    *Collector
	link int16
}

func (t *LinkTap) record(now sim.Time, ev uint8, flow int, kind uint8, size int, seq int64, depth int) {
	if t == nil || len(t.c.trace.buf) == 0 {
		return
	}
	t.c.trace.push(traceRec{
		at: now, ev: ev, link: t.link, flow: int32(flow),
		kind: kind, a: int64(size), b: seq, depth: int32(depth),
	})
}

// Enqueue records a packet accepted into the queue (depth = occupancy
// after the insert). Besides the trace event, the occupancy feeds the
// link's log-bucket depth histogram, so the distribution is captured
// even when the trace ring has long since wrapped.
func (t *LinkTap) Enqueue(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	if t == nil {
		return
	}
	t.c.depth[t.link].Add(int64(depth))
	t.record(now, evEnqueue, flow, kind, size, seq, depth)
}

// Dequeue records a packet leaving the queue for transmission.
func (t *LinkTap) Dequeue(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evDequeue, flow, kind, size, seq, depth)
}

// Drop records a packet dropped at this link (tail drop, push-out, RED,
// or virtual dropping).
func (t *LinkTap) Drop(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evDrop, flow, kind, size, seq, depth)
}

// Mark records a virtual-queue ECN mark applied to a packet.
func (t *LinkTap) Mark(now sim.Time, flow int, kind uint8, size int, seq int64, depth int) {
	t.record(now, evMark, flow, kind, size, seq, depth)
}
