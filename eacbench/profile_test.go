package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// modulePackages lists the import path of every non-test package of the
// eac module outside cmd/ and examples/ (whose code profiles as package
// main).
func modulePackages(t *testing.T) []string {
	t.Helper()
	pkgs := []string{"eac"}
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err == nil {
			pkgs = append(pkgs, "eac/"+filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(pkgs)
	return slices.Compact(pkgs)
}

func TestLayerTableCoversEveryPackage(t *testing.T) {
	pkgs := modulePackages(t)
	if len(pkgs) < 10 {
		t.Fatalf("found only %d packages under ../internal: %v", len(pkgs), pkgs)
	}
	for _, pkg := range pkgs {
		l, err := layerOf(pkg + ".(*T).Method")
		if err != nil {
			t.Error(err)
			continue
		}
		if !slices.Contains(layers, l) {
			t.Errorf("%s: layer %q is not a named layer", pkg, l)
		}
	}
	for pkg := range layerTable {
		if !slices.Contains(pkgs, pkg) {
			t.Errorf("layerTable names %s, which is not a package of the module", pkg)
		}
	}
}

func TestUnmappedPackageIsError(t *testing.T) {
	if _, err := layerOf("eac/internal/newlayer.(*Thing).Run"); err == nil {
		t.Error("layerOf accepted a package missing from layerTable")
	}
	stack := []string{"eac/internal/newlayer.step", "eac/internal/sim.(*Sim).Run"}
	if _, err := selfSeconds([]cpuSample{{stack: stack, ns: 1e7}}); err == nil {
		t.Error("selfSeconds charged a sample whose leaf is in an unmapped package")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"eac/internal/netsim.(*FluidBackground).advance":       "fluid",
		"eac/internal/netsim.(*FluidBackground).SetRate.func1": "fluid",
		"eac/internal/netsim.NewFluidBackground":               "fluid",
		"eac/internal/netsim.(*Link).Receive":                  "netsim",
		"eac/internal/scenario.(*Runner).Run.func1":            "scenario",
		"eac/internal/sim/shard.(*Exec).Run":                   "sim",
		"eac.RunSeeds":                                         "scenario",
		"runtime.mallocgc":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"math.Log":                    "",
		"sort.Float64s":               "",
		"runtime/pprof.profileWriter": "",
	} {
		got, err := layerOf(fn)
		if err != nil || got != want {
			t.Errorf("layerOf(%q) = %q, %v; want %q", fn, got, err, want)
		}
	}
}

func TestStackLayerChargesStandardLibraryToCaller(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"math.Log", "eac/internal/stats.(*RNG).Exp", "eac/internal/scenario.(*Runner).onFlowArrival"}, "stats"},
		{[]string{"runtime.mallocgc", "eac/internal/netsim.(*Link).Receive"}, "runtime"},
		{[]string{"crypto/sha256.block", "main.(passResult).digest", "main.main", "runtime.main"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"time.now"}, "other"},
	} {
		got, err := stackLayer(tc.stack)
		if err != nil || got != tc.want {
			t.Errorf("stackLayer(%q) = %q, %v; want %q", tc.stack, got, err, tc.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			n += i & 3
		}
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.ns
		if len(s.stack) > 0 && strings.HasSuffix(s.stack[0], ".spinForProfile") {
			spin += s.ns
		}
	}
	if total == 0 || spin < total/2 {
		t.Errorf("spinForProfile holds %d of %d profiled ns across %d samples; want most", spin, total, len(samples))
	}
	if _, err := parseCPUProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}
