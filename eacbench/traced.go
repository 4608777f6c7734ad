package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
)

// traced reports the per-layer metrics. It runs the workload's pass under
// a CPU profile of the whole process, between two plain passes whose mean
// wall time is the base of trace.overhead, and with a counting-only
// obs collector attached where the entry point accepts one
// (Runner.Observe). The profile's self time is grouped by layer. The seed
// pool builds its own runners, so a pooled workload's counts come from a
// third, serial, unprofiled pass, which must reproduce the pool's digest.
func traced(w workload, seed uint64) (result, error) {
	pc := &passChecker{w: w, seed: seed}
	_, plain, err := pc.run(w.pooled, nil)
	if err != nil {
		return result{}, err
	}

	t := &tally{}
	counted := t
	if w.pooled {
		counted = nil
	}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	res, wall, err := pc.run(w.pooled, counted)
	pprof.StopCPUProfile()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, err
	}
	_, plain2, err := pc.run(w.pooled, nil)
	if err != nil {
		return result{}, err
	}
	plain = (plain + plain2) / 2
	if w.pooled {
		if _, _, err := pc.run(false, t); err != nil {
			return result{}, err
		}
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	self, err := selfSeconds(samples)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{}
	var named, total float64
	for _, l := range layers {
		m[l+".self_s"] = metric{self[l], "s"}
		named += self[l]
	}
	total = named + self["other"]

	decisions := float64(t.admitted + t.rejected)
	busy := 0.0
	if w.pooled {
		busy = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	for name, v := range map[string]metric{
		"sim.events":             {float64(res.events), "count"},
		"sim.ns_per_event":       {ratio(self["sim"]*1e9, float64(res.events)), "ns"},
		"netsim.enqueues":        {float64(t.enqueues), "count"},
		"netsim.ns_per_enqueue":  {ratio(self["netsim"]*1e9, float64(t.enqueues)), "ns"},
		"netsim.hub_depth_p99":   {float64(t.hubDepth.Quantile(0.99)), "pkts"},
		"admission.decisions":    {decisions, "count"},
		"admission.accept_ratio": {ratio(float64(t.admitted), decisions), "ratio"},
		"admission.probe_share":  {ratio(t.probeShare, float64(t.runs)), "ratio"},
		"pool.busy_ratio":        {busy, "ratio"},
		"pool.runs":              {float64(res.poolRuns), "count"},
		"runtime.alloc_mb":       {float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), "MiB"},
		"runtime.gc_cycles":      {float64(ms1.NumGC - ms0.NumGC), "count"},
		"trace.overhead":         {wall.Seconds()/plain.Seconds() - 1, "ratio"},
		"profile.named_share":    {ratio(named, total), "ratio"},
	} {
		m[name] = v
	}
	printLine("profile", map[string]any{"samples": len(samples), "cpu_s": total,
		"other_s": self["other"], "wall_s": wall.Seconds(), "plain_wall_s": plain.Seconds()})
	return pc.result(m), nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
