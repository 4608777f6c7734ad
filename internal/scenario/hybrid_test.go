package scenario

import (
	"reflect"
	"strings"
	"testing"

	"eac/internal/admission"
	"eac/internal/trafgen"
)

// hybridCfg is a short congested EAC scenario with the fluid engine on:
// every class's data phase rides the fluid plane, probes stay packets.
func hybridCfg(seed uint64) Config {
	c := reuseCfg(seed)
	c.Hybrid.Enabled = true
	return c
}

// TestHybridRunSmoke checks the hybrid engine end to end on a congested
// link: admission still decides (probes are packet-level), the fluid
// plane carries data and reports nonzero load, loss, and utilization.
func TestHybridRunSmoke(t *testing.T) {
	m, err := Run(hybridCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Decided == 0 {
		t.Fatal("no admission decisions — probes did not run")
	}
	if m.Classes[0].DataSent == 0 {
		t.Fatal("fluid plane reported no data packets sent")
	}
	if m.Utilization <= 0 || m.Utilization > 1.01 {
		t.Fatalf("utilization %v out of range", m.Utilization)
	}
	// The scenario is heavily overloaded (the packet path blocks ~100% on
	// it). Probes must see the fluid congestion: if the fluid plane were
	// invisible to admission, blocking would collapse to ~0.
	if m.BlockingProb < 0.5 {
		t.Fatalf("blocking probability %v under heavy overload — probes are not seeing the fluid background", m.BlockingProb)
	}
}

// TestHybridMixedForeground keeps one class on the packet plane and one on
// the fluid plane: both must carry data, and only the packet class can
// accumulate delay samples (fluid data never traverses the queue).
func TestHybridMixedForeground(t *testing.T) {
	c := hybridCfg(2)
	c.Classes = []ClassSpec{
		{Name: "pkt", Preset: trafgen.EXP1, Weight: 1, Eps: -1},
		{Name: "fluid", Preset: trafgen.EXP1, Weight: 1, Eps: -1},
	}
	c.Hybrid.Background = []int{1}
	m, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Classes[0].DataSent == 0 || m.Classes[1].DataSent == 0 {
		t.Fatalf("both planes must carry data: pkt=%d fluid=%d",
			m.Classes[0].DataSent, m.Classes[1].DataSent)
	}
	if m.MeanDelaySec <= 0 {
		t.Fatal("packet-plane class produced no delay samples")
	}
}

// TestHybridWorkspaceByteIdentical extends the workspace byte-identity
// contract to hybrid runs, interleaved with pure-packet runs so the reset
// path must rebuild and tear down the fluid attachments.
func TestHybridWorkspaceByteIdentical(t *testing.T) {
	seq := []Config{hybridCfg(1), reuseCfg(2), hybridCfg(3), hybridCfg(1)}
	mark := hybridCfg(4)
	mark.AC.Design = admission.Design{Signal: admission.Mark, Band: admission.OutOfBand}
	seq = append(seq, mark)
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
			t.Fatalf("run %d: workspace metrics diverge from fresh run\nfresh:  %+v\nreused: %+v",
				i, fresh, reused)
		}
	}
}

// TestHybridOffByteIdentical pins the flag's inertness: a zero Hybrid
// config must fingerprint and simulate exactly as before the engine
// existed (the golden conformance figures are the broader backstop).
func TestHybridOffByteIdentical(t *testing.T) {
	off := reuseCfg(7)
	if off.Fingerprint() != reuseCfg(7).Fingerprint() {
		t.Fatal("zero Hybrid config fingerprint is unstable")
	}
	on := hybridCfg(7)
	if on.Fingerprint() == off.Fingerprint() {
		t.Fatal("enabling the hybrid engine must change the fingerprint")
	}
	a, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(reuseCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hybrid-off runs are not reproducible")
	}
}

// TestHybridValidate pins the config-level guard rails.
func TestHybridValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"mbac", func(c *Config) { c.Method = MBAC }, "requires method"},
		{"passive", func(c *Config) { c.Method = Passive }, "requires method"},
		{"share", func(c *Config) { c.Hybrid.MaxShare = 1.5 }, "MaxShare"},
		{"class", func(c *Config) { c.Hybrid.Background = []int{3} }, "class"},
	}
	for _, tc := range cases {
		c := hybridCfg(1)
		tc.mutate(&c)
		err := c.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := hybridCfg(1).WithDefaults().Validate(); err != nil {
		t.Errorf("valid hybrid config rejected: %v", err)
	}
}
