package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// TimeSeries records how the fleet behaves *over virtual time*: the
// simulated clock is cut into fixed-width ticks, and every observation
// lands in the window its timestamp falls in. End-of-run aggregates
// answer "how much"; the windows answer "when" — which is the question
// a chaos schedule poses (did shed rate spike while backend b1 was
// flapping?) and the shape the paper's energy-trajectory argument
// needs.
//
// Windows are kept contiguous from window 0: recording into window i
// materializes every window up to i, so exported series have no gaps
// and a window's start time is always exactly Index*Tick — computed as
// a product, never accumulated, so it is bit-identical however the run
// was scheduled. The recorder grows by O(run length / tick),
// independent of client count — the property that lets a 100k-handset
// sweep stream through it.
//
// A TimeSeries is not safe for concurrent use. The fleet engine writes
// it from inside the event heap while holding the engine lock, which
// is also what makes the output byte-identical across -workers: every
// write happens in heap order, regardless of which goroutine's
// request triggered it.
type TimeSeries struct {
	tick float64
	wins []Window // wins[i] has index i
}

// Window is one tick's worth of telemetry. Counters accumulate within
// the window (served, shed, energy); Gauges are last-write-wins
// samples (queue depth, breakers open). Keys are series names —
// usually built with SeriesName so labels render consistently.
type Window struct {
	Index    int64              `json:"i"`
	Start    float64            `json:"t0"`
	End      float64            `json:"t1"`
	Counters map[string]float64 `json:"c,omitempty"`
	Gauges   map[string]float64 `json:"g,omitempty"`
}

// TimeSeriesSchema identifies the JSONL header line this package
// writes and the validator checks.
const TimeSeriesSchema = "greenvm-timeseries/1"

// NewTimeSeries returns a recorder with the given tick width in
// virtual seconds.
func NewTimeSeries(tick float64) *TimeSeries {
	if tick <= 0 || math.IsInf(tick, 0) || math.IsNaN(tick) {
		panic(fmt.Sprintf("obs: timeseries tick %g must be a positive finite width", tick))
	}
	return &TimeSeries{tick: tick}
}

// Tick returns the window width in virtual seconds.
func (ts *TimeSeries) Tick() float64 { return ts.tick }

// IndexOf maps a virtual timestamp to its window index: window i
// covers [i*tick, (i+1)*tick).
func (ts *TimeSeries) IndexOf(t float64) int64 {
	return int64(math.Floor(t / ts.tick))
}

// windowAt returns the window with index i (non-negative: virtual
// time starts at 0), materializing windows up to it as needed.
func (ts *TimeSeries) windowAt(i int64) *Window {
	for int64(len(ts.wins)) <= i {
		idx := int64(len(ts.wins))
		ts.wins = append(ts.wins, Window{
			Index: idx,
			Start: float64(idx) * ts.tick,
			End:   float64(idx+1) * ts.tick,
		})
	}
	return &ts.wins[i]
}

// Add accumulates v into the named counter of the window containing
// virtual time t.
func (ts *TimeSeries) Add(t float64, name string, v float64) {
	ts.AddIdx(ts.IndexOf(t), name, v)
}

// AddIdx accumulates v into the named counter of window i.
func (ts *TimeSeries) AddIdx(i int64, name string, v float64) {
	w := ts.windowAt(i)
	if w.Counters == nil {
		w.Counters = map[string]float64{}
	}
	w.Counters[name] += v
}

// Set records v as the named gauge of the window containing virtual
// time t (last write within a window wins).
func (ts *TimeSeries) Set(t float64, name string, v float64) {
	ts.SetIdx(ts.IndexOf(t), name, v)
}

// SetIdx records v as the named gauge of window i.
func (ts *TimeSeries) SetIdx(i int64, name string, v float64) {
	w := ts.windowAt(i)
	if w.Gauges == nil {
		w.Gauges = map[string]float64{}
	}
	w.Gauges[name] = v
}

// Windows returns the windows, oldest first. The slice and its maps
// are live; callers must not mutate them.
func (ts *TimeSeries) Windows() []Window { return ts.wins }

// tsHeader is the first JSONL line: enough for a reader to interpret
// the windows without out-of-band knowledge.
type tsHeader struct {
	Schema  string  `json:"schema"`
	Tick    float64 `json:"tick"`
	Windows int     `json:"windows"`
}

// WriteJSONL writes a header line followed by one JSON object per
// window. Output is deterministic: windows are in index order and
// encoding/json sorts map keys.
func (ts *TimeSeries) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(tsHeader{Schema: TimeSeriesSchema, Tick: ts.tick, Windows: len(ts.wins)}); err != nil {
		return err
	}
	for i := range ts.wins {
		if err := enc.Encode(&ts.wins[i]); err != nil {
			return err
		}
	}
	return nil
}

// WritePrometheus renders the most recent window in the Prometheus
// text format under a ts_ prefix, plus ts_window_index/ts_window_start
// so a scraper can tell windows apart. Series names built with
// SeriesName carry their label braces through unchanged.
func (ts *TimeSeries) WritePrometheus(w io.Writer) error {
	if len(ts.wins) == 0 {
		_, err := fmt.Fprintf(w, "# no windows recorded yet (tick %s)\n", formatFloat(ts.tick))
		return err
	}
	win := &ts.wins[len(ts.wins)-1]
	if _, err := fmt.Fprintf(w, "ts_window_index %d\nts_window_start %s\n",
		win.Index, formatFloat(win.Start)); err != nil {
		return err
	}
	emit := func(prefix string, m map[string]float64) error {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", prefix, k, formatFloat(m[k])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("ts_", win.Counters); err != nil {
		return err
	}
	return emit("ts_", win.Gauges)
}

// SeriesName builds a window series key with Prometheus-style labels:
// SeriesName("served", "backend", "b0") → `served{backend="b0"}`.
// Label pairs are sorted by key so equal label sets always produce
// equal names. Pre-build these outside hot loops; the result is just a
// string to key the window maps with.
func SeriesName(name string, labelPairs ...string) string {
	if len(labelPairs) == 0 {
		return name
	}
	sorted := sortPairs(labelPairs)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(sorted); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sorted[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(sorted[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}
