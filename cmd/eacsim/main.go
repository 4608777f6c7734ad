// Command eacsim runs one endpoint-admission-control scenario and prints
// the paper's metrics: utilization of the allocated share, data packet
// loss probability, and flow blocking probability.
//
// Examples:
//
//	eacsim -design drop-in -prober slow-start -eps 0.01
//	eacsim -method mbac -target 0.95 -tau 1.0 -duration 14000
//	eacsim -source StarWars -tau 8 -design mark-out -eps 0.05 -seeds 3
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"eac/internal/admission"
	"eac/internal/cache"
	"eac/internal/obs"
	"eac/internal/scenario"
	"eac/internal/sim"
	"eac/internal/trafgen"
)

func parseDesign(s string) (admission.Design, error) {
	switch s {
	case "drop-in":
		return admission.DropInBand, nil
	case "drop-out":
		return admission.DropOutOfBand, nil
	case "mark-in":
		return admission.MarkInBand, nil
	case "mark-out":
		return admission.MarkOutOfBand, nil
	case "vdrop-out":
		return admission.VDropOutOfBand, nil
	}
	return admission.Design{}, fmt.Errorf("unknown design %q (drop-in, drop-out, mark-in, mark-out, vdrop-out)", s)
}

func parseProber(s string) (admission.ProberKind, error) {
	switch s {
	case "simple":
		return admission.Simple, nil
	case "early-reject":
		return admission.EarlyReject, nil
	case "slow-start":
		return admission.SlowStart, nil
	}
	return 0, fmt.Errorf("unknown prober %q (simple, early-reject, slow-start)", s)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("eacsim: ")

	var (
		method   = flag.String("method", "eac", "admission method: eac, mbac, passive, none")
		design   = flag.String("design", "drop-in", "endpoint design: drop-in, drop-out, mark-in, mark-out, vdrop-out")
		prober   = flag.String("prober", "slow-start", "probing algorithm: simple, early-reject, slow-start")
		eps      = flag.Float64("eps", 0.01, "acceptance threshold")
		target   = flag.Float64("target", 0.95, "MBAC utilization target")
		source   = flag.String("source", "EXP1", "traffic source: EXP1, EXP2, EXP3, EXP4, POO1, StarWars")
		tau      = flag.Float64("tau", 3.5, "mean flow inter-arrival time, seconds")
		life     = flag.Float64("life", 300, "mean flow lifetime, seconds")
		linkBps  = flag.Float64("link", 10e6, "allocated link share, bits/s")
		duration = flag.Float64("duration", 14000, "simulated seconds")
		warmup   = flag.Float64("warmup", 2000, "discarded warm-up seconds")
		prepop   = flag.Float64("prepopulate", 0, "seed stationary flows to this utilization (0 = off)")
		seeds    = flag.Int("seeds", 1, "number of seeds to average")
		workers  = flag.Int("workers", 0, "parallel seed runs (0 = one per core); results are identical for any value")

		// Topology (see README "The MetroStar preset").
		topology = flag.String("topology", "basic", "basic (one congested link) or metro-star (the large star-of-chains preset; -source/-tau/-life/-link/-prepopulate are derived from -hosts and ignored)")
		chains   = flag.Int("chains", 0, "metro-star: access chains off the hub (0 = preset default 8)")
		hops     = flag.Int("hops", 0, "metro-star: links per chain (0 = preset default 3)")
		hosts    = flag.Int("hosts", 0, "metro-star: target concurrent host population (0 = preset default 10000)")
		hybrid   = flag.Bool("hybrid", false, "carry data phases as per-link fluid rates instead of packets (hybrid fluid/packet engine; probes stay packet-level). Orders of magnitude faster at large scale; requires -method eac or none")
		probeDur = flag.Float64("probe", 5, "total probe duration, seconds")
		useRED   = flag.Bool("red", false, "use a RED queue instead of drop-tail (in-band designs only)")
		retries  = flag.Int("retries", 0, "max admission retries with exponential back-off")

		// Admission policy layer (EAC only; see README "Admission policies").
		policy     = flag.String("policy", "static", "admission policy: static, always-admit, never-admit, token-bucket, epoch-adaptive")
		bucketCap  = flag.Float64("policy.bucket-cap", 0, "token-bucket: capacity in admission tokens (0 = default 10)")
		bucketRate = flag.Float64("policy.bucket-rate", 0, "token-bucket: refill rate, tokens/s (0 = default 0.5)")
		bucketCost = flag.Float64("policy.bucket-cost", 0, "token-bucket: tokens per admission (0 = default 1)")
		epochN     = flag.Int("policy.epoch", 0, "epoch-adaptive: probes per adaptation epoch (0 = default 50)")
		epsMin     = flag.Float64("policy.eps-min", 0, "epoch-adaptive: lower eps clamp (0 = default 0.001)")
		epsMax     = flag.Float64("policy.eps-max", 0, "epoch-adaptive: upper eps clamp (0 = default 0.1)")
		epsStep    = flag.Float64("policy.step", 0, "epoch-adaptive: multiplicative eps step in [0,1) (0 = default 0.25)")
		targetLoss = flag.Float64("policy.target-loss", 0, "epoch-adaptive: post-admission loss setpoint (0 = default 0.01)")
		adaptProbe = flag.Bool("policy.adapt-probe", false, "epoch-adaptive: also adapt the probe duration")

		// Nonstationary load modulation (see README "Temporal workloads").
		loadPeriod = flag.Float64("load.period", 0, "on/off arrival modulation period, seconds (0 = stationary)")
		loadOnFrac = flag.Float64("load.on-fraction", 0, "fraction of each period in the on phase (0 = default 0.5)")
		loadOnF    = flag.Float64("load.on-factor", 0, "arrival-rate factor in the on phase (0 = default 2)")
		loadOffF   = flag.Float64("load.off-factor", 0, "arrival-rate factor in the off phase (default 0 = silent)")
		loadSched  = flag.String("load.schedule", "", "phase schedule modulating the arrival rate, e.g. 'const:100:1,ramp:60:1:3,spike:30:4,hold' (see README; exclusive with -load.period)")
		loadReplay = flag.String("load.replay", "", "replay flow arrivals from a recorded obs JSONL event trace instead of drawing them (exclusive with -load.period and -load.schedule)")

		// Result cache (see README "Result cache").
		useCache = flag.Bool("cache", false, "serve repeated runs from the content-addressed result cache")
		cacheDir = flag.String("cache-dir", "", "result cache directory (implies -cache; default $EAC_CACHE_DIR or the user cache dir)")

		// Observability and profiling (see README "Observability").
		obsDir    = flag.String("obs", "", "write observability artifacts (run manifest, per-queue time-series CSVs, JSONL event traces) under this directory")
		mInterval = flag.Float64("metrics-interval", 1, "queue telemetry sampling interval, simulated seconds (0 disables the time series)")
		traceOut  = flag.String("trace-out", "", "JSONL event trace path (default <obs>/eacsim-s<seed>-trace.jsonl; implies -obs in the file's directory; single seed only)")
		perfetto  = flag.String("trace-perfetto", "", "Chrome/Perfetto trace-event JSON export path for the probe-lifecycle spans (open with ui.perfetto.dev; implies -obs in the file's directory; single seed only)")
		traceCap  = flag.Int("trace-cap", 1<<16, "event trace ring capacity; the oldest events are discarded beyond this")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *seeds < 1 {
		log.Printf("-seeds must be >= 1, got %d", *seeds)
		flag.Usage()
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil)) }()
	}

	var cfg scenario.Config
	switch *topology {
	case "basic":
		preset, err := trafgen.Lookup(*source)
		if err != nil {
			log.Fatal(err)
		}
		cfg = scenario.Config{
			Classes:         []scenario.ClassSpec{{Preset: preset, Weight: 1, Eps: -1}},
			Links:           []scenario.LinkSpec{{RateBps: *linkBps}},
			InterArrival:    *tau,
			LifetimeSec:     *life,
			PrepopulateUtil: *prepop,
		}
	case "metro-star":
		cfg = scenario.MetroStar(scenario.MetroStarOptions{
			Chains: *chains, Hops: *hops, Hosts: *hosts,
		})
	default:
		log.Fatalf("unknown topology %q (basic, metro-star)", *topology)
	}
	cfg.Duration = sim.Seconds(*duration)
	cfg.Warmup = sim.Seconds(*warmup)
	cfg.MaxRetries = *retries
	if *useRED {
		cfg.Queue = scenario.QueueRED
	}
	if *loadPeriod > 0 {
		cfg.Load = scenario.LoadSpec{
			PeriodSec: *loadPeriod, OnFraction: *loadOnFrac,
			OnFactor: *loadOnF, OffFactor: *loadOffF,
		}
	}
	if *loadSched != "" {
		if *loadPeriod > 0 {
			log.Fatal("-load.schedule and -load.period are mutually exclusive")
		}
		s, err := scenario.ParseSchedule(*loadSched)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Schedule = s
	}
	if *loadReplay != "" {
		if *loadPeriod > 0 || *loadSched != "" {
			log.Fatal("-load.replay is mutually exclusive with -load.period and -load.schedule")
		}
		tr, err := scenario.LoadReplay(*loadReplay)
		if err != nil {
			log.Fatal(err)
		}
		if tr.Len() == 0 {
			log.Fatalf("-load.replay: no arrival events in %s (was the trace recorded with -obs and a large enough -trace-cap?)", *loadReplay)
		}
		cfg.Replay = tr
	}
	switch *method {
	case "eac":
		d, err := parseDesign(*design)
		if err != nil {
			log.Fatal(err)
		}
		k, err := parseProber(*prober)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Method = scenario.EAC
		cfg.AC = admission.Config{Design: d, Kind: k, Eps: *eps, ProbeDur: sim.Seconds(*probeDur)}
		pk, err := admission.ParsePolicyKind(*policy)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Policy = admission.PolicyConfig{
			Kind:      pk,
			BucketCap: *bucketCap, BucketRate: *bucketRate, BucketCost: *bucketCost,
			Epoch: *epochN, EpsMin: *epsMin, EpsMax: *epsMax,
			Step: *epsStep, TargetLoss: *targetLoss, AdaptProbe: *adaptProbe,
		}
	case "mbac":
		cfg.Method = scenario.MBAC
		cfg.MS.Target = *target
	case "passive":
		cfg.Method = scenario.Passive
		cfg.AC.Eps = *eps
	case "none":
		cfg.Method = scenario.None
	default:
		log.Fatalf("unknown method %q", *method)
	}

	for _, f := range []struct{ flag, path string }{
		{"-trace-out", *traceOut}, {"-trace-perfetto", *perfetto},
	} {
		if f.path == "" {
			continue
		}
		if *seeds > 1 {
			log.Fatalf("%s names a single file; use -seeds 1 or -obs DIR for per-seed traces", f.flag)
		}
		if *obsDir == "" {
			// Trace-only invocation: keep the manifest and series next to
			// the requested trace file instead of littering the cwd.
			*obsDir = filepath.Dir(f.path)
		}
	}
	if *obsDir != "" {
		cfg.Obs = obs.Config{
			Enabled:         true,
			Dir:             *obsDir,
			Label:           "eacsim",
			MetricsInterval: sim.Seconds(*mInterval),
			TraceCapacity:   *traceCap,
			TracePath:       *traceOut,
			PerfettoPath:    *perfetto,
		}
	}

	var store *cache.Store
	if *useCache || *cacheDir != "" {
		var err error
		if store, err = cache.Open(*cacheDir); err != nil {
			log.Fatal(err)
		}
		cfg.Cache = store
		if cfg.Obs.Enabled {
			log.Print("result cache: bypassed while observability is active (artifacts cannot come from a cache)")
		}
	}

	if *hybrid {
		cfg.Hybrid.Enabled = true
	}

	seedVals := scenario.DefaultSeeds(*seeds)
	start := time.Now()
	mm, err := scenario.RunSeedsParallel(cfg, seedVals, *workers)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	m := mm.Mean

	if *obsDir != "" {
		man := obs.NewManifest()
		man.Workers = *workers
		if man.Workers <= 0 {
			man.Workers = runtime.GOMAXPROCS(0)
		}
		man.Seeds = seedVals
		man.WallSeconds = wall.Seconds()
		man.Config = map[string]any{
			"method": *method, "design": *design, "prober": *prober,
			"eps": *eps, "target": *target, "source": *source,
			"tau_s": *tau, "life_s": *life, "link_bps": *linkBps,
			"duration_s": *duration, "warmup_s": *warmup,
			"prepopulate": *prepop, "probe_s": *probeDur,
			"red": *useRED, "retries": *retries,
			"metrics_interval_s": *mInterval, "trace_cap": *traceCap,
			"topology": *topology,
			"policy":   cfg.Policy.Kind.String(),
		}
		if cfg.Load.Active() {
			man.Config["load_period_s"] = cfg.Load.PeriodSec
			man.Config["load_on_fraction"] = cfg.Load.OnFraction
			man.Config["load_on_factor"] = cfg.Load.OnFactor
			man.Config["load_off_factor"] = cfg.Load.OffFactor
		}
		if cfg.Schedule.Active() {
			man.Config["load_schedule"] = cfg.Schedule.String()
		}
		if cfg.Replay != nil {
			man.Config["replay_source"] = cfg.Replay.Source()
			man.Config["replay_digest"] = cfg.Replay.Digest()
			man.Config["replay_arrivals"] = cfg.Replay.Len()
		}
		man.Summary = map[string]any{
			"utilization": m.Utilization, "util_stderr": mm.UtilStderr,
			"loss": m.DataLossProb, "loss_stderr": mm.LossStderr,
			"blocking": m.BlockingProb, "decided": m.Decided,
			"probe_share": m.ProbeShare,
		}
		if store != nil {
			man.Cache = &cache.Snapshot{Dir: store.Dir(), Stats: store.Stats(),
				Bypassed: "obs active"}
		}
		for _, s := range seedVals {
			man.Artifacts = append(man.Artifacts, cfg.Obs.AllArtifactPaths(s)...)
		}
		if p := cfg.Obs.PerfettoFile(); p != "" {
			man.Artifacts = append(man.Artifacts, p)
		}
		if err := man.Write(cfg.Obs.ManifestPath()); err != nil {
			log.Fatal(err)
		}
		log.Printf("observability: wrote %s and %d artifact(s) under %s",
			cfg.Obs.ManifestPath(), len(man.Artifacts), *obsDir)
	}
	if *topology == "metro-star" {
		fmt.Printf("scenario : %s %s duration=%.0fs x %d seed(s)\n",
			*method, cfg.Name, *duration, *seeds)
	} else {
		fmt.Printf("scenario : %s %s tau=%.2gs link=%.3gMb/s duration=%.0fs x %d seed(s)\n",
			*method, *source, *tau, *linkBps/1e6, *duration, *seeds)
	}
	if cfg.Hybrid.Active() {
		fmt.Printf("hybrid   : fluid data plane, packet probes (max background share %.2f)\n",
			cfg.WithDefaults().Hybrid.MaxShare)
	}
	if cfg.Method == scenario.EAC {
		fmt.Printf("design   : %s, %s probing, eps=%.3g\n", cfg.AC.Design, cfg.AC.Kind, *eps)
		if cfg.Policy.Kind != admission.PolicyStatic {
			fmt.Printf("policy   : %s\n", cfg.Policy.Kind)
		}
	}
	if cfg.Load.Active() {
		fmt.Printf("load     : on/off modulation, period=%.3gs\n", cfg.Load.PeriodSec)
	}
	if cfg.Schedule.Active() {
		fmt.Printf("load     : schedule %s (peak %.3gx)\n", cfg.Schedule, cfg.Schedule.Peak())
	}
	if cfg.Replay != nil {
		fmt.Printf("load     : replaying %d arrivals from %s\n", cfg.Replay.Len(), cfg.Replay.Source())
	}
	fmt.Printf("util     : %.4f (+/- %.4f across seeds)\n", m.Utilization, mm.UtilStderr)
	fmt.Printf("loss     : %.3e (+/- %.1e)\n", m.DataLossProb, mm.LossStderr)
	fmt.Printf("blocking : %.4f over %d decided flows\n", m.BlockingProb, m.Decided)
	fmt.Printf("probes   : %.4f of the allocated share\n", m.ProbeShare)
	if store != nil {
		log.Printf("result cache: %s (%s)", store.Stats(), store.Dir())
	}
	for _, cm := range m.Classes {
		if len(m.Classes) > 1 {
			fmt.Printf("  class %-10s blocking=%.4f loss=%.3e\n", cm.Name, cm.BlockingProb(), cm.LossProb())
		}
	}
	os.Exit(0)
}
