package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eac/internal/cache"
	"eac/internal/sim"
)

func enabledCfg(dir string) Config {
	return Config{
		Enabled:         true,
		Dir:             dir,
		Label:           "t",
		MetricsInterval: sim.Second,
		TraceCapacity:   8,
	}
}

func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() || c.Sampling() || c.Tracing() {
		t.Fatal("nil collector reports activity")
	}
	if c.Interval() != 0 || c.TraceLen() != 0 || c.TraceDropped() != 0 {
		t.Fatal("nil collector reports state")
	}
	c.AddSample(Sample{})
	c.Decision(0, 0, 0, true, 1, 0.5)
	if got := c.DecisionCounts(); got != (Decisions{}) {
		t.Fatalf("nil collector counted decisions: %+v", got)
	}
	if c.Samples() != nil {
		t.Fatal("nil collector has samples")
	}
	if tap := c.RegisterLink("L0"); tap != nil {
		t.Fatal("nil collector handed out a tap")
	}
	paths, err := c.Flush()
	if err != nil || paths != nil {
		t.Fatalf("nil Flush = %v, %v", paths, err)
	}
	var tap *LinkTap
	tap.Enqueue(0, 0, 0, 100, 0, 1) // must not panic
}

func TestZeroConfigConstructsNothing(t *testing.T) {
	if New(Config{}, 1) != nil {
		t.Fatal("zero config constructed a collector")
	}
	if !enabledCfg("x").Active() {
		t.Fatal("non-zero config not active")
	}
	if (Config{TraceCapacity: 1}).Active() != true {
		t.Fatal("disabled-but-configured should still be active")
	}
}

func TestDisabledCollectorIsInert(t *testing.T) {
	cfg := enabledCfg(t.TempDir())
	cfg.Enabled = false
	c := New(cfg, 1)
	if c == nil {
		t.Fatal("active config produced nil collector")
	}
	if c.Enabled() || c.Sampling() || c.Tracing() {
		t.Fatal("disabled collector reports activity")
	}
	if tap := c.RegisterLink("L0"); tap != nil {
		t.Fatal("disabled collector handed out a tap")
	}
	c.AddSample(Sample{T: 1})
	c.Decision(0, 0, 0, true, 1, 0)
	if len(c.Samples()) != 0 || c.DecisionCounts() != (Decisions{}) || c.TraceLen() != 0 {
		t.Fatal("disabled collector recorded something")
	}
	paths, err := c.Flush()
	if err != nil || len(paths) != 0 {
		t.Fatalf("disabled Flush wrote %v (err %v)", paths, err)
	}
}

func TestRingWrapsAndCountsDropped(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 4}, 1)
	tap := c.RegisterLink("L0")
	for i := 0; i < 10; i++ {
		tap.Enqueue(sim.Time(i)*sim.Second, i, 0, 100, int64(i), i)
	}
	if c.TraceLen() != 4 {
		t.Fatalf("TraceLen = %d, want 4", c.TraceLen())
	}
	if c.TraceDropped() != 6 {
		t.Fatalf("TraceDropped = %d, want 6", c.TraceDropped())
	}
	// Oldest-first order after wrapping: flows 6,7,8,9 survive.
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("trace lines = %d, want 4", len(lines))
	}
	for i, line := range lines {
		var ev struct {
			T    float64 `json:"t"`
			Ev   string  `json:"ev"`
			Flow int     `json:"flow"`
			Kind string  `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if want := 6 + i; ev.Flow != want {
			t.Fatalf("line %d flow = %d, want %d", i, ev.Flow, want)
		}
		if ev.Ev != "enqueue" || ev.Kind != "data" {
			t.Fatalf("line %d = %+v", i, ev)
		}
	}
}

func TestTraceDecisionEvents(t *testing.T) {
	c := New(Config{Enabled: true, TraceCapacity: 8}, 1)
	c.Decision(2*sim.Second, 7, 1, true, 2, 0.005)
	c.Decision(3*sim.Second, 8, 0, false, 1, 0.25)
	if got := c.DecisionCounts(); got.Admitted != 1 || got.Rejected != 1 {
		t.Fatalf("DecisionCounts = %+v", got)
	}
	var b strings.Builder
	if err := c.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("trace lines = %d, want 2", len(lines))
	}
	var ev decisionEvent
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Ev != "reject" || ev.Flow != 8 || ev.Class != 0 || ev.Attempt != 1 || ev.Frac != 0.25 {
		t.Fatalf("reject event = %+v", ev)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	c := New(enabledCfg(t.TempDir()), 1)
	c.RegisterLink("L0")
	c.AddSample(Sample{
		T: 1, Link: 0, Depth: 3, Busy: true, ActiveFlows: 12, Util: 0.5,
		VQBacklog: 100, Arrived: [2]int64{10, 5}, Dropped: [2]int64{1, 2},
		FluidBg: 2.5e6, FluidMark: 0.125,
	})
	var b strings.Builder
	if err := c.WriteSeries(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("series lines = %d, want header + 1", len(lines))
	}
	if !strings.HasPrefix(lines[0], "t_s,link,depth,busy,") {
		t.Fatalf("header = %q", lines[0])
	}
	want := "1.000000,L0,3,1,12,0.500000,100,10,1,0,0,5,2,0,0,2500000,0.125000"
	if lines[1] != want {
		t.Fatalf("row = %q, want %q", lines[1], want)
	}
}

func TestFlushWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := enabledCfg(dir)
	c := New(cfg, 42)
	tap := c.RegisterLink("L0")
	tap.Enqueue(0, 0, 0, 100, 0, 1)
	c.AddSample(Sample{T: 1, Link: 0})
	c.Decision(sim.Second, 0, 0, true, 1, 0) // gives the span artifact content
	paths, err := c.Flush()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "t-s42-series.csv"),
		filepath.Join(dir, "t-s42-trace.jsonl"),
		filepath.Join(dir, "t-s42-spans.jsonl"),
		filepath.Join(dir, "t-s42-hist.json"),
	}
	if len(paths) != len(want) {
		t.Fatalf("Flush paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("Flush paths[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
	for _, p := range paths {
		if b, err := os.ReadFile(p); err != nil || len(b) == 0 {
			t.Fatalf("artifact %s: err %v, %d bytes", p, err, len(b))
		}
	}
}

func TestArtifactPathOverrides(t *testing.T) {
	cfg := Config{Enabled: true, Dir: "d", Label: "x", MetricsInterval: sim.Second,
		TraceCapacity: 4, TracePath: "custom.jsonl"}
	series, trace := cfg.ArtifactPaths(7)
	if series != filepath.Join("d", "x-s7-series.csv") {
		t.Fatalf("series = %q", series)
	}
	if trace != "custom.jsonl" {
		t.Fatalf("trace = %q", trace)
	}
	cfg.Enabled = false
	if s, tr := cfg.ArtifactPaths(7); s != "" || tr != "" {
		t.Fatalf("disabled paths = %q, %q", s, tr)
	}
	if got := cfg.ManifestPath(); got != filepath.Join("d", "x-manifest.json") {
		t.Fatalf("manifest path = %q", got)
	}
}

// TestManifestV2CacheBypassed pins the v2 schema addition, the cache
// snapshot's bypassed note — the manifest must say the artifacts could not
// have come from a cache while observability forces a bypass — and that a
// manifest without a cache snapshot omits it (v1 compatibility).
func TestManifestV2CacheBypassed(t *testing.T) {
	if ManifestSchema != "eac/obs/manifest/v2" {
		t.Fatalf("schema = %q; bump this pin only with a layout change", ManifestSchema)
	}
	m := NewManifest()
	m.Cache = &cache.Snapshot{Dir: "/c", Bypassed: "obs active"}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"bypassed": "obs active"`) {
		t.Fatalf("manifest JSON missing the bypassed note:\n%s", b)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cache.Bypassed != "obs active" {
		t.Fatalf("round trip = %+v", got)
	}
	m2 := NewManifest()
	if err := m2.Write(path); err != nil {
		t.Fatal(err)
	}
	if b, _ = os.ReadFile(path); strings.Contains(string(b), "bypassed") {
		t.Fatalf("manifest without a cache leaked the bypassed field:\n%s", b)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest()
	if m.Schema != ManifestSchema || m.GoVersion == "" || m.NumCPU < 1 {
		t.Fatalf("NewManifest = %+v", m)
	}
	m.Workers = 4
	m.Seeds = []uint64{1, 2}
	m.WallSeconds = 1.5
	m.Config = map[string]any{"method": "eac"}
	m.Summary = map[string]any{"utilization": 0.87}
	m.Artifacts = []string{"a.csv"}
	path := filepath.Join(t.TempDir(), "sub", "m.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != m.Schema || got.Workers != 4 || len(got.Seeds) != 2 ||
		got.Config["method"] != "eac" || got.Artifacts[0] != "a.csv" {
		t.Fatalf("round trip = %+v", got)
	}
}

// TestWriteHistDocument pins the histogram artifact: header, per-class
// delay distribution with its exact mean, per-link depth distribution,
// and the decision counts.
func TestWriteHistDocument(t *testing.T) {
	c := New(Config{Enabled: true}, 7)
	c.RegisterClass("voice")
	tap := c.RegisterLink("L0")
	c.Delay(0, 10*sim.Millisecond)
	c.Delay(0, 20*sim.Millisecond)
	c.Delay(0, 40*sim.Millisecond)
	tap.Enqueue(0, 1, 0, 125, 0, 3)
	c.Decision(0, 1, 0, true, 1, 0)
	var b strings.Builder
	if err := c.WriteHist(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema    string    `json:"schema"`
		Seed      uint64    `json:"seed"`
		Decisions Decisions `json:"decisions"`
		DelayNs   []struct {
			Class  string  `json:"class"`
			N      int64   `json:"n"`
			MeanNs float64 `json:"mean_ns"`
		} `json:"delay_ns"`
		QueueDepth []struct {
			Link string `json:"link"`
			N    int64  `json:"n"`
			P99  int64  `json:"p99"`
		} `json:"queue_depth"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != HistSchema || doc.Seed != 7 || doc.Decisions.Admitted != 1 {
		t.Fatalf("hist header = %+v", doc)
	}
	if strings.Contains(b.String(), "shard") {
		t.Fatalf("hist document still carries v1 shard fields: %s", b.String())
	}
	if len(doc.DelayNs) != 1 || doc.DelayNs[0].Class != "voice" || doc.DelayNs[0].N != 3 {
		t.Fatalf("delay_ns = %+v, want one class with n=3", doc.DelayNs)
	}
	if want := float64(70*sim.Millisecond) / 3; doc.DelayNs[0].MeanNs != want {
		t.Fatalf("mean = %v, want %v", doc.DelayNs[0].MeanNs, want)
	}
	if len(doc.QueueDepth) != 1 || doc.QueueDepth[0].Link != "L0" || doc.QueueDepth[0].N != 1 || doc.QueueDepth[0].P99 != 3 {
		t.Fatalf("queue_depth = %+v, want one L0 entry with one depth-3 sample", doc.QueueDepth)
	}
}
