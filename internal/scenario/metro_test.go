package scenario

import (
	"testing"

	"eac/internal/sim"
)

// TestMetroStarPreset sanity-checks the large-topology preset's shape and
// that a short run of it executes end to end.
func TestMetroStarPreset(t *testing.T) {
	cfg := MetroStar(MetroStarOptions{})
	if got, want := len(cfg.Links), 1+8*3; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
	if got, want := len(cfg.Classes), 16; got != want {
		t.Fatalf("classes = %d, want %d", got, want)
	}
	if err := cfg.WithDefaults().Validate(); err != nil {
		t.Fatal(err)
	}
	small := MetroStar(MetroStarOptions{Chains: 3, Hops: 2, Hosts: 600})
	small.Duration = 8 * sim.Second
	small.Warmup = 2 * sim.Second
	small.Drain = sim.Second
	small.Seed = 5
	m, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	if m.Utilization <= 0.2 || m.Utilization > 1 {
		t.Errorf("metro-star hub utilization %v implausible", m.Utilization)
	}
}
