package obs

import (
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/radio"
)

func testMethod(name string) *bytecode.Method {
	return &bytecode.Method{Name: name, Class: &bytecode.Class{Name: "App"}}
}

// counterValue digs one series value out of a snapshot.
func counterValue(t *testing.T, snap *Snapshot, name string, labels map[string]string) float64 {
	t.Helper()
	for _, m := range snap.Metrics {
		if m.Name != name {
			continue
		}
	series:
		for _, s := range m.Series {
			if len(s.Labels) != len(labels) {
				continue
			}
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			return s.Value
		}
	}
	t.Fatalf("no series %s%v in snapshot", name, labels)
	return 0
}

// TestMetricsSinkRadioDeltas: events carry cumulative link telemetry;
// the sink must fold in deltas, not last snapshots, so the counters
// equal the link's final totals — and SyncRadio catches a trailing
// failed exchange that no event reported.
func TestMetricsSinkRadioDeltas(t *testing.T) {
	sink := NewMetricsSink(nil)
	m := testMethod("work")

	// Two invocations with cumulative telemetry; if the sink added the
	// raw snapshots it would double-count the first exchange.
	sink.Emit(core.Event{Kind: core.EvInvoke, Method: m, Mode: core.ModeRemote, Energy: 0.5, Time: 0.1,
		Radio: radio.Telemetry{Exchanges: 1, BytesSent: 100, BytesReceived: 40}})
	sink.Emit(core.Event{Kind: core.EvInvoke, Method: m, Mode: core.ModeRemote, Energy: 0.4, Time: 0.1,
		Radio: radio.Telemetry{Exchanges: 2, Losses: 1, BytesSent: 250, BytesReceived: 90}})
	// Trailing failed exchange: the link advanced but no further event
	// carried it. SyncRadio folds the final counters in.
	sink.SyncRadio(radio.Telemetry{Exchanges: 3, Losses: 2, BytesSent: 400, BytesReceived: 90})

	snap := sink.Registry().Snapshot()
	none := map[string]string{}
	if v := counterValue(t, snap, "radio_exchanges_total", none); v != 3 {
		t.Errorf("exchanges %g, want 3 (deltas, not snapshots)", v)
	}
	if v := counterValue(t, snap, "radio_losses_total", none); v != 2 {
		t.Errorf("losses %g, want 2", v)
	}
	if v := counterValue(t, snap, "radio_bytes_sent_total", none); v != 400 {
		t.Errorf("bytes sent %g, want 400", v)
	}
	if v := counterValue(t, snap, "radio_bytes_received_total", none); v != 90 {
		t.Errorf("bytes received %g, want 90", v)
	}
	// SyncRadio with unchanged telemetry must be a no-op.
	sink.SyncRadio(radio.Telemetry{Exchanges: 3, Losses: 2, BytesSent: 400, BytesReceived: 90})
	snap2 := sink.Registry().Snapshot()
	if v := counterValue(t, snap2, "radio_exchanges_total", none); v != 3 {
		t.Errorf("idempotent sync changed exchanges to %g", v)
	}
}

// TestMetricsSinkAttribution: energy/time land on the (method, mode)
// series, and the histograms count the observations.
func TestMetricsSinkAttribution(t *testing.T) {
	sink := NewMetricsSink(nil)
	w, v := testMethod("work"), testMethod("vecsum")
	sink.Emit(core.Event{Kind: core.EvInvoke, Method: w, Mode: core.ModeInterp, Energy: 2, Time: 1})
	sink.Emit(core.Event{Kind: core.EvInvoke, Method: w, Mode: core.ModeInterp, Energy: 3, Time: 1})
	sink.Emit(core.Event{Kind: core.EvInvoke, Method: v, Mode: core.ModeL2, Energy: 0.5, Time: 0.2})
	sink.Emit(core.Event{Kind: core.EvPhase, Phase: core.PhaseShip, Method: w, Time: 0.75})

	snap := sink.Registry().Snapshot()
	if e := counterValue(t, snap, "invocation_energy_joules_total",
		map[string]string{"method": "App.work", "mode": "I"}); e != 5 {
		t.Errorf("App.work interp energy %g, want 5", e)
	}
	if n := counterValue(t, snap, "invocations_total",
		map[string]string{"method": "App.vecsum", "mode": "L2"}); n != 1 {
		t.Errorf("App.vecsum L2 invocations %g, want 1", n)
	}
	if s := counterValue(t, snap, "phase_seconds_total",
		map[string]string{"phase": "ship"}); s != 0.75 {
		t.Errorf("ship phase seconds %g, want 0.75", s)
	}
}
