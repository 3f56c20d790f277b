package experiments

import (
	"strings"
	"testing"
)

// TestResilienceSweepShapes: every strategy completes the scenario at
// every outage level, the fault-free cell comes first, and costs never
// shrink when faults are injected.
func TestResilienceSweepShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps are slow under -race/-short")
	}
	envs := testEnvs(t)
	pts, err := RunResilienceSweepOn(nil, envs[0], 20, 42) // fe
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1+len(outageRates)*len(outageBursts) {
		t.Fatalf("got %d cells", len(pts))
	}
	base := pts[0]
	if base.OutageRate != 0 {
		t.Fatal("first cell must be the fault-free baseline")
	}
	if base.AALosses != 0 || base.RFallbacks != 0 {
		t.Errorf("fault-free cell shows losses: %+v", base)
	}
	var worst ResiliencePoint
	for _, p := range pts[1:] {
		// fe offloads heavily: heavy short-burst cells lose exchanges
		// for certain (rare long bursts may fall between this small
		// scenario's transfers), and faults never make R relatively
		// cheaper.
		if p.OutageRate >= 0.2 && p.MeanBurst == 1 && p.RFallbacks == 0 && p.AALosses == 0 {
			t.Errorf("cell %.2f/%v shows no faults at all", p.OutageRate, p.MeanBurst)
		}
		if p.R < base.R {
			t.Errorf("cell %.2f/%v: R/L2 %.3f below fault-free %.3f",
				p.OutageRate, p.MeanBurst, p.R, base.R)
		}
		if p.OutageRate == 0.4 && p.MeanBurst == 1 {
			worst = p
		}
	}
	// Under a heavy per-transfer outage the adaptive strategy must
	// degrade more gracefully than static R: it can stop offloading,
	// R cannot.
	if worst.AA >= worst.R {
		t.Errorf("heavy outage: AA/L2 %.3f should beat R/L2 %.3f", worst.AA, worst.R)
	}
}

// TestResilienceSweepDeterministic: the sweep with fault injection
// renders byte-identically whether the grid runs serially or sharded
// across workers.
func TestResilienceSweepDeterministic(t *testing.T) {
	envs := testEnvs(t)
	runs := 12
	if testing.Short() {
		// Keep the race-detector pass within budget on slow hosts;
		// the full-size comparison runs in the regular pass.
		runs = 3
	}
	render := func(r *Runner) string {
		var b strings.Builder
		pts, err := RunResilienceSweepOn(r, envs[0], runs, 42)
		if err != nil {
			t.Fatal(err)
		}
		RenderResilienceSweep(&b, envs[0].App.Name, pts)
		return b.String()
	}
	serial := render(nil)
	parallel := render(NewRunner(4))
	if serial != parallel {
		t.Error("parallel resilience sweep differs from serial run")
	}
	if !strings.Contains(serial, "burst outages") {
		t.Error("render incomplete")
	}
}
