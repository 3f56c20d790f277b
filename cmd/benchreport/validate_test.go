package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"greenvm/internal/obs"
)

// sampleSeries records 40 counter and gauge writes over several
// windows and returns the recorder's JSONL and its window count.
func sampleSeries(t testing.TB) ([]byte, int) {
	ts := obs.NewTimeSeries(0.0005)
	for i := 0; i < 40; i++ {
		at := float64(i) * 0.0003
		ts.Add(at, "served", 1)
		ts.Add(at, obs.SeriesName("served", "backend", "s0"), 1)
		ts.Set(at, obs.SeriesName("depth", "backend", "s0"), float64(i%3))
	}
	var b bytes.Buffer
	if err := ts.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), len(ts.Windows())
}

// TestValidateTimeSeriesRoundTrip: what obs.TimeSeries writes, the
// validator accepts — the contract CI relies on.
func TestValidateTimeSeriesRoundTrip(t *testing.T) {
	b, windows := sampleSeries(t)
	n, err := validateTimeSeries(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	if n != windows {
		t.Errorf("validated %d windows, recorder has %d", n, windows)
	}
}

const tsHeader = `{"schema":"greenvm-timeseries/1","tick":0.5,"windows":2}`

// tsRejects are timeseries files the validator must reject, with a
// fragment of the error each must give.
var tsRejects = []struct {
	name, in, wantErr string
}{
	{"empty", "", "missing header"},
	{"bad schema", `{"schema":"nope/9","tick":0.5,"windows":0}`, "schema"},
	{"zero tick", `{"schema":"greenvm-timeseries/1","tick":0,"windows":0}`, "tick"},
	{"negative windows", `{"schema":"greenvm-timeseries/1","tick":0.5,"windows":-1}`, "non-negative"},
	{"count mismatch", tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5}`, "found 1"},
	{"gap", tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5}` + "\n" + `{"i":2,"t0":1,"t1":1.5}`, "not contiguous"},
	{"misaligned", tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5}` + "\n" + `{"i":1,"t0":0.6,"t1":1}`, "not aligned"},
	{"negative counter", tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5,"c":{"served":-1}}` + "\n" + `{"i":1,"t0":0.5,"t1":1}`, "non-negative"},
	{"unknown field", tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5,"zz":1}` + "\n" + `{"i":1,"t0":0.5,"t1":1}`, "unknown field"},
}

func TestValidateTimeSeriesRejects(t *testing.T) {
	for _, tc := range tsRejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := validateTimeSeries(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// sampleProm is a registry's Prometheus exposition with a counter, a
// gauge, a histogram and a summary with streaming quantiles.
func sampleProm(t testing.TB) string {
	reg := obs.NewRegistry()
	reg.Counter("rt_requests_total", "requests").WithLabels("backend", "s0").Add(3)
	reg.Gauge("rt_depth", "queue depth").WithLabels().Set(2)
	h := reg.Histogram("rt_bytes", "payload bytes", []float64{16, 64, 256})
	h.Observe(40)
	s := reg.Summary("rt_wait_seconds", "queue wait").WithLabels("backend", "s0")
	for i := 0; i < 100; i++ {
		s.Observe(float64(i) / 100)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestValidatePromRoundTrip: the registry's Prometheus exposition —
// including a summary with streaming quantiles — passes the
// validator's summary contract.
func TestValidatePromRoundTrip(t *testing.T) {
	text := sampleProm(t)
	n, err := validateProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip rejected: %v\n%s", err, text)
	}
	if n == 0 {
		t.Error("no samples validated")
	}
}

// promRejects are expositions the validator must reject, with a
// fragment of the error each must give.
var promRejects = []struct {
	name, in, wantErr string
}{
	{"malformed line", "what even is this\n", "malformed sample"},
	{"bad value", "x_total 1.2.3\n", "unparseable value"},
	{"summary missing sum",
		"# TYPE w summary\nw{quantile=\"0.5\"} 1\nw_count 2\n", "incomplete"},
	{"summary without quantile label",
		"# TYPE w summary\nw 1\n", "lacks a quantile"},
	{"quantile out of range",
		"# TYPE w summary\nw{quantile=\"1.5\"} 1\nw_sum 1\nw_count 1\n", "outside [0,1]"},
	{"NaN quantile",
		"# TYPE w summary\nw{quantile=\"NaN\"} 1\nw_sum 1\nw_count 1\n", "outside [0,1]"},
}

func TestValidatePromRejects(t *testing.T) {
	for _, tc := range promRejects {
		t.Run(tc.name, func(t *testing.T) {
			_, err := validateProm(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestRunValidateFiles drives the -validate-ts/-validate-prom file
// mode end to end the way CI invokes it.
func TestRunValidateFiles(t *testing.T) {
	ts := obs.NewTimeSeries(0.001)
	ts.Add(0.0004, "served", 1)
	ts.Add(0.0023, "served", 2)
	var jb bytes.Buffer
	if err := ts.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tsPath := dir + "/ts.jsonl"
	if err := os.WriteFile(tsPath, jb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Summary("w_seconds", "w").WithLabels().Observe(1)
	var pb strings.Builder
	if err := reg.WritePrometheus(&pb); err != nil {
		t.Fatal(err)
	}
	promPath := dir + "/metrics.txt"
	if err := os.WriteFile(promPath, []byte(pb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runValidate(&out, tsPath, promPath); err != nil {
		t.Fatalf("runValidate: %v", err)
	}
	if !strings.Contains(out.String(), "3 windows") || !strings.Contains(out.String(), "samples") {
		t.Errorf("unexpected validate output:\n%s", out.String())
	}
}

// FuzzValidateTimeSeries: the timeseries validator never panics, on
// round-trip output, on the reject cases or on anything between.
func FuzzValidateTimeSeries(f *testing.F) {
	b, _ := sampleSeries(f)
	f.Add(b)
	for _, tc := range tsRejects {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte(`{"schema":"greenvm-timeseries/1","tick":NaN,"windows":0}`))
	f.Add([]byte(tsHeader + "\n" + `{"i":0,"t0":0,"t1":0.5,"g":{"up":1e999}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		_, _ = validateTimeSeries(bytes.NewReader(in))
	})
}

// FuzzValidateProm: the Prometheus validator never panics, on
// round-trip output, on the reject cases or on anything between.
func FuzzValidateProm(f *testing.F) {
	f.Add(sampleProm(f))
	for _, tc := range promRejects {
		f.Add(tc.in)
	}
	f.Add("# TYPE w summary\nw{quantile=\"0.5\"} NaN\nw_sum +Inf\nw_count 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		_, _ = validateProm(strings.NewReader(in))
	})
}
