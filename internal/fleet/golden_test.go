package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"greenvm/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden fleet output")

// goldenSpec is a small chaotic fleet that offloads a lot: mf clients
// at three input sizes, two executions each, over three p2c backends
// with s0 flapping on a lossy link and s1 browned out, on one slot.
func goldenSpec(t *testing.T, sink func(ClientResult)) Spec {
	t.Helper()
	spec := Spec{Workload: testWorkload(t), Population: NewPopulation(64,
		WithSeed(12),
		WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
		WithExecutions(2),
		WithSizes(16, 48, 88),
		WithArrivalCurve(ArrivalSpec{Kind: ArriveUniform, Span: 0.02}),
	), Server: core.SessionConfig{Workers: 1, QueueCap: 4}}
	spec.Servers = 3
	spec.Placement = PlaceP2C
	spec.Chaos = []BackendChaos{
		{FlapAt: 0.001, FlapDown: 0.002, FlapEvery: 0.004, LossRate: 0.3, LossBurst: 3},
		{BrownoutAt: 0.0005, BrownoutFactor: 6},
	}
	spec.Concurrency = 1
	spec.Telemetry = &TelemetrySpec{Tick: 0.001}
	spec.ResultSink = sink
	return spec
}

// TestFleetGolden pins a chaotic fleet's streamed client records and
// telemetry JSONL byte for byte. Host-side work on the server or the
// client (replay, caching, dispatch) must leave both unchanged.
// Regenerate deliberately with:
//
//	go test ./internal/fleet -run TestFleetGolden -update-golden
func TestFleetGolden(t *testing.T) {
	var clients bytes.Buffer
	enc := json.NewEncoder(&clients)
	res, err := Run(goldenSpec(t, func(cr ClientResult) {
		if err := enc.Encode(cr); err != nil {
			t.Error(err)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Server.Served == 0 || res.Totals.Errors > 0 {
		t.Fatalf("golden fleet served %d requests with %d failed clients", res.Server.Served, res.Totals.Errors)
	}
	series := seriesJSONL(t, res)
	for _, f := range []struct {
		name string
		got  []byte
	}{
		{"golden_clients.jsonl", clients.Bytes()},
		{"golden_timeseries.jsonl", series},
	} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (regenerate with -update-golden): %v", err)
		}
		if !bytes.Equal(f.got, want) {
			t.Errorf("%s diverged from the golden file: got %d bytes, want %d", f.name, len(f.got), len(want))
		}
	}
}
