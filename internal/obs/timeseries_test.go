package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestTimeSeriesWindowing(t *testing.T) {
	ts := NewTimeSeries(0.5)
	ts.Add(0.1, "served", 1)
	ts.Add(0.49, "served", 1)
	ts.Add(0.5, "served", 1) // boundary: belongs to window 1
	ts.Add(2.2, "shed", 1)   // skips window 2/3 boundary — fills gaps
	ts.Set(2.3, "depth", 4)
	ts.Set(2.4, "depth", 2) // last write wins

	wins := ts.Windows()
	if len(wins) != 5 {
		t.Fatalf("want 5 contiguous windows, got %d", len(wins))
	}
	for i, w := range wins {
		if w.Index != int64(i) {
			t.Errorf("window %d has index %d", i, w.Index)
		}
		if w.Start != float64(w.Index)*0.5 || w.End != float64(w.Index+1)*0.5 {
			t.Errorf("window %d bounds [%g, %g)", i, w.Start, w.End)
		}
	}
	if wins[0].Counters["served"] != 2 || wins[1].Counters["served"] != 1 {
		t.Errorf("served split %g/%g, want 2/1", wins[0].Counters["served"], wins[1].Counters["served"])
	}
	if wins[4].Counters["shed"] != 1 || wins[4].Gauges["depth"] != 2 {
		t.Errorf("window 4: %+v", wins[4])
	}
	if wins[2].Counters != nil || wins[3].Counters != nil {
		t.Error("gap windows should stay empty")
	}
}

func TestTimeSeriesJSONL(t *testing.T) {
	ts := NewTimeSeries(0.25)
	ts.Add(0.0, SeriesName("served", "backend", "b0"), 3)
	ts.Add(0.3, "energy_j", 1.5)

	var b strings.Builder
	if err := ts.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr struct {
		Schema  string  `json:"schema"`
		Tick    float64 `json:"tick"`
		Windows int     `json:"windows"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Schema != TimeSeriesSchema || hdr.Tick != 0.25 || hdr.Windows != 2 {
		t.Errorf("header %+v", hdr)
	}
	var wins []Window
	for sc.Scan() {
		var w Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("window line: %v", err)
		}
		wins = append(wins, w)
	}
	if len(wins) != 2 {
		t.Fatalf("decoded %d windows", len(wins))
	}
	if wins[0].Counters[`served{backend="b0"}`] != 3 {
		t.Errorf("window 0: %+v", wins[0])
	}
	if wins[1].Counters["energy_j"] != 1.5 {
		t.Errorf("window 1: %+v", wins[1])
	}

	// Byte-identical on re-render: the JSONL is deterministic.
	var b2 strings.Builder
	if err := ts.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("JSONL render not deterministic")
	}
}

func TestTimeSeriesPrometheus(t *testing.T) {
	ts := NewTimeSeries(1)
	ts.Add(0.5, "served", 2)
	ts.Add(1.5, SeriesName("served", "backend", "b1"), 7)
	ts.Set(1.6, "depth", 3)

	var b strings.Builder
	if err := ts.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `ts_window_index 1
ts_window_start 1
ts_served{backend="b1"} 7
ts_depth 3
`
	if b.String() != want {
		t.Errorf("prometheus render:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSeriesNameCanonical(t *testing.T) {
	a := SeriesName("served", "kind", "warm", "backend", "b0")
	b := SeriesName("served", "backend", "b0", "kind", "warm")
	if a != b {
		t.Errorf("label order leaked into name: %q vs %q", a, b)
	}
	if want := `served{backend="b0",kind="warm"}`; a != want {
		t.Errorf("name %q, want %q", a, want)
	}
	if got := SeriesName("bare"); got != "bare" {
		t.Errorf("unlabeled name %q", got)
	}
}

func TestHTTPHandlerRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits", "").Inc()
	h := HTTPHandler(reg, WithPprof())

	get := func(path string) (string, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body, _ := io.ReadAll(rec.Result().Body)
		return string(body), rec.Result().Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "hits 1") || !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics: ct=%q body=%q", ct, body)
	}
	if root, _ := get("/"); root != body {
		t.Error("root path should answer like /metrics")
	}
	jbody, jct := get("/metrics.json")
	if !strings.Contains(jbody, `"hits"`) || jct != "application/json" {
		t.Errorf("/metrics.json: ct=%q", jct)
	}
	if pp, _ := get("/debug/pprof/"); !strings.Contains(pp, "profile") {
		t.Errorf("pprof index missing: %q", pp[:min(len(pp), 120)])
	}
	// Without the option, pprof stays unregistered (root catches it and
	// serves metrics text instead).
	plain := HTTPHandler(reg)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if b, _ := io.ReadAll(rec.Result().Body); !strings.Contains(string(b), "hits 1") {
		t.Error("plain handler should not expose pprof")
	}
}

// BenchmarkTimeSeriesAdd is one windowed counter accumulation,
// including the amortized cost of materializing a new window every
// 16 adds. A fresh series starts every span windows, so memory stays
// bounded however large b.N gets.
func BenchmarkTimeSeriesAdd(b *testing.B) {
	const span = 512
	name := SeriesName("served", "backend", "s0")
	var ts *TimeSeries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(16*span) == 0 {
			ts = NewTimeSeries(0.0005)
		}
		ts.AddIdx(int64(i>>4)%span, name, 1)
	}
}
