package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"greenvm/internal/obs"
)

// Schema validation for the telemetry artifacts CI uploads: the
// fleetsim -timeseries JSONL and the registry's Prometheus text
// exposition. Both validators read a stream and fail loudly on the
// first violation, so a broken exporter turns a green artifact-upload
// step into a red one.

// runValidate drives the -validate-ts / -validate-prom modes. Either
// path may be "-" for stdin; both may be given in one invocation.
func runValidate(w io.Writer, tsPath, promPath string) error {
	open := func(path string) (io.ReadCloser, error) {
		if path == "-" {
			return io.NopCloser(os.Stdin), nil
		}
		return os.Open(path)
	}
	if tsPath != "" {
		f, err := open(tsPath)
		if err != nil {
			return err
		}
		n, err := validateTimeSeries(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", tsPath, err)
		}
		fmt.Fprintf(w, "%s: ok, %d windows\n", tsPath, n)
	}
	if promPath != "" {
		f, err := open(promPath)
		if err != nil {
			return err
		}
		n, err := validateProm(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", promPath, err)
		}
		fmt.Fprintf(w, "%s: ok, %d samples\n", promPath, n)
	}
	return nil
}

// tsFileHeader mirrors the obs.TimeSeries JSONL header line.
type tsFileHeader struct {
	Schema  string  `json:"schema"`
	Tick    float64 `json:"tick"`
	Windows int     `json:"windows"`
	Evicted int64   `json:"evicted"`
	Late    int64   `json:"late"`
}

// validateTimeSeries checks a timeseries JSONL stream: the header
// carries the known schema string, a positive finite tick and
// non-negative counts; every window line decodes with no unknown
// fields, indices are strictly contiguous, bounds equal exactly
// index*tick and (index+1)*tick (the writer computes them as products,
// so a reader may too), counters are finite and non-negative, gauges
// finite; and the window count matches the header. Returns the number
// of windows validated.
func validateTimeSeries(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("empty input: missing header line")
	}
	var hdr tsFileHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return 0, fmt.Errorf("header: %w", err)
	}
	if hdr.Schema != obs.TimeSeriesSchema {
		return 0, fmt.Errorf("header schema %q, want %q", hdr.Schema, obs.TimeSeriesSchema)
	}
	if !(hdr.Tick > 0) || math.IsInf(hdr.Tick, 0) {
		return 0, fmt.Errorf("header tick %g must be a positive finite width", hdr.Tick)
	}
	if hdr.Windows < 0 || hdr.Evicted < 0 || hdr.Late < 0 {
		return 0, fmt.Errorf("header counts must be non-negative (windows=%d evicted=%d late=%d)",
			hdr.Windows, hdr.Evicted, hdr.Late)
	}
	n := 0
	var prev int64
	for sc.Scan() {
		var w obs.Window
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&w); err != nil {
			return n, fmt.Errorf("window line %d: %w", n+1, err)
		}
		if n > 0 && w.Index != prev+1 {
			return n, fmt.Errorf("window line %d: index %d not contiguous after %d", n+1, w.Index, prev)
		}
		if w.Start != float64(w.Index)*hdr.Tick || w.End != float64(w.Index+1)*hdr.Tick {
			return n, fmt.Errorf("window %d: bounds [%g,%g) not aligned to tick %g",
				w.Index, w.Start, w.End, hdr.Tick)
		}
		for name, v := range w.Counters {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return n, fmt.Errorf("window %d: counter %s = %g must be finite and non-negative",
					w.Index, name, v)
			}
		}
		for name, v := range w.Gauges {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return n, fmt.Errorf("window %d: gauge %s = %g must be finite", w.Index, name, v)
			}
		}
		prev = w.Index
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n != hdr.Windows {
		return n, fmt.Errorf("header says %d windows, found %d", hdr.Windows, n)
	}
	return n, nil
}

// promSampleRE matches one exposition sample: name, optional label
// braces, one space, value.
var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$`)

var promQuantileRE = regexp.MustCompile(`quantile="([^"]*)"`)

// validateProm checks a Prometheus text exposition: every
// non-comment line is a well-formed sample with a parseable value,
// and every family declared `# TYPE <name> summary` round-trips the
// summary contract — at least one quantile-labeled sample with a
// quantile in [0,1], plus matching _sum and _count samples. Returns
// the number of samples validated.
func validateProm(r io.Reader) (int, error) {
	type family struct {
		quantiles, sum, count bool
	}
	summaries := map[string]*family{}
	n, lineNo := 0, 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" && f[3] == "summary" {
				summaries[f[2]] = &family{}
			}
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			return n, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return n, fmt.Errorf("line %d: sample %s has unparseable value %q", lineNo, name, value)
		}
		switch {
		case summaries[name] != nil:
			qm := promQuantileRE.FindStringSubmatch(labels)
			if qm == nil {
				return n, fmt.Errorf("line %d: summary sample %s lacks a quantile label", lineNo, name)
			}
			q, err := strconv.ParseFloat(qm[1], 64)
			if err != nil || !(q >= 0 && q <= 1) {
				return n, fmt.Errorf("line %d: summary %s has quantile %q outside [0,1]", lineNo, name, qm[1])
			}
			summaries[name].quantiles = true
		case summaries[strings.TrimSuffix(name, "_sum")] != nil:
			summaries[strings.TrimSuffix(name, "_sum")].sum = true
		case summaries[strings.TrimSuffix(name, "_count")] != nil:
			summaries[strings.TrimSuffix(name, "_count")].count = true
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	names := make([]string, 0, len(summaries))
	for name := range summaries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := summaries[name]
		if !f.quantiles || !f.sum || !f.count {
			return n, fmt.Errorf("summary %s incomplete: quantiles=%v sum=%v count=%v",
				name, f.quantiles, f.sum, f.count)
		}
	}
	return n, nil
}
