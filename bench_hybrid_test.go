// Hybrid-engine macro-benchmark: the packet engine vs the hybrid
// fluid/packet engine on the MetroStar preset at the 10^5-concurrent-host
// operating point.
//
// Each iteration is ONE complete single-seed run of the same scenario
// (identical admission design, probes, and workload) under each engine.
// The hybrid engine carries every data phase as a per-link fluid rate, so
// the event volume collapses to arrivals plus probe packets — the point
// of the engine is that this turns a minutes-scale packet run into a
// sub-second one while the probe dynamics stay packet-accurate (the
// hybrid crossval envelopes in internal/conformance quantify the
// statistical agreement).
//
// Run via `make bench-hybrid`, which rewrites results/BENCH_hybrid.json
// and appends headline records to results/BENCH_index.json:
//
//	go test -run '^$' -bench BenchmarkHybrid -benchtime 3x -timeout 30m .
//
// In -short mode the host population and simulated duration shrink so CI
// can smoke both engines without paying the full packet run; no files are
// written and the speedup floor is not asserted (it is meaningless at
// smoke scale).
package eac_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"eac"
	"eac/internal/benchindex"
)

// hybridSpeedupFloor is the committed claim for the full-scale point: the
// hybrid engine must complete the 10^5-host MetroStar run at least this
// many times faster than the packet engine.
const hybridSpeedupFloor = 50.0

// hybridBenchConfig is the MetroStar preset at 10^5 concurrent hosts
// (short mode: 10^3) under the EAC drop in-band slow-start design.
func hybridBenchConfig(short bool) eac.Config {
	opts := eac.MetroStarOptions{Hosts: 100000}
	dur, warm := 6*eac.Second, 2*eac.Second
	if short {
		opts.Hosts = 1000
		dur, warm = 3*eac.Second, 1*eac.Second
	}
	cfg := eac.MetroStar(opts)
	cfg.Drain = eac.Second
	cfg.Method = eac.EAC
	cfg.AC = eac.ACConfig{Design: eac.DropInBand, Kind: eac.SlowStart, Eps: 0.01}
	cfg.Duration = dur
	cfg.Warmup = warm
	cfg.Seed = 1
	return cfg
}

// BenchmarkHybrid runs the same MetroStar scenario under the packet and
// hybrid engines and, at full scale, asserts the speedup floor and
// rewrites results/BENCH_hybrid.json.
func BenchmarkHybrid(b *testing.B) {
	cfg := hybridBenchConfig(testing.Short())
	type engine struct {
		WallNs      int64   `json:"wall_ns_per_run"`
		Utilization float64 `json:"hub_utilization"`
		Blocking    float64 `json:"blocking_prob"`
	}
	engines := map[string]*engine{}
	for _, name := range []string{"packet", "hybrid"} {
		name := name
		b.Run("engine="+name, func(b *testing.B) {
			c := cfg
			c.Hybrid.Enabled = name == "hybrid"
			ws := eac.NewWorkspace()
			var m eac.Metrics
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if m, err = ws.Run(c); err != nil {
					b.Fatal(err)
				}
			}
			engines[name] = &engine{
				WallNs:      b.Elapsed().Nanoseconds() / int64(b.N),
				Utilization: m.Utilization,
				Blocking:    m.BlockingProb,
			}
		})
	}
	if len(engines) < 2 || testing.Short() {
		return // filtered sub-benchmark or smoke workload: nothing comparable
	}
	pkt, hyb := engines["packet"], engines["hybrid"]
	speedup := float64(pkt.WallNs) / float64(hyb.WallNs)
	if speedup < hybridSpeedupFloor {
		b.Errorf("hybrid speedup %.1fx below the committed %.0fx floor (packet %v, hybrid %v)",
			speedup, hybridSpeedupFloor, time.Duration(pkt.WallNs), time.Duration(hyb.WallNs))
	}
	rec := map[string]any{
		"benchmark": "BenchmarkHybrid (go test -run '^$' -bench BenchmarkHybrid -benchtime 3x)",
		"date":      time.Now().UTC().Format(time.RFC3339),
		"machine": map[string]any{
			"cores":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"note": "Both engines run in the same process on the same host, so the speedup " +
				"ratio is machine-normalized even though the absolute wall clocks drift with " +
				"the shared-vCPU fleet. The engines are statistically close, not byte-identical " +
				"— see the hybrid crossval envelopes (internal/conformance) for the agreement " +
				"contract; the utilization/blocking columns here are a coarse sanity echo.",
		},
		"workload": fmt.Sprintf(
			"MetroStar 8 chains x 3 hops, 100000 concurrent hosts (EXP1), EAC slow-start in-band drop, %.0f s simulated, seed 1",
			cfg.Duration.Sec()),
		"engines":         engines,
		"speedup":         speedup,
		"speedup_floor":   hybridSpeedupFloor,
		"floor_satisfied": speedup >= hybridSpeedupFloor,
	}
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("results/BENCH_hybrid.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	date := rec["date"].(string)
	if err := benchindex.Append("results/BENCH_index.json",
		benchindex.Record{
			Name: "BenchmarkHybrid/engine=packet", Date: date, Metric: "ns_per_run",
			Value: float64(pkt.WallNs), Unit: "ns",
		},
		benchindex.Record{
			Name: "BenchmarkHybrid/engine=hybrid", Date: date, Metric: "ns_per_run",
			Value: float64(hyb.WallNs), Unit: "ns", Baseline: float64(pkt.WallNs),
		},
		benchindex.Record{
			Name: "BenchmarkHybrid", Date: date, Metric: "hybrid_speedup",
			Value: speedup, Unit: "x",
		},
	); err != nil {
		b.Fatal(err)
	}
}
