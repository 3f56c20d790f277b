package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A span is one timed call from the benchmark into a layer's public
// function. Start and End are nanoseconds since the tracer's origin;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name       string `json:"name"`
	Parent     int    `json:"parent"`
	Start, End int64
}

// tracer keeps a traced rep's spans in memory until the rep ends. A
// nil *tracer records nothing, so untraced reps run the same code.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// sum returns the total duration, in seconds, of the spans named name.
func (t *tracer) sum(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durations returns the durations, in milliseconds, of the spans named
// name, in the order they opened.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// self returns span i's duration minus the part of it that its child
// spans cover, in seconds. Children may overlap (parallel workers), so
// their intervals are merged before subtracting.
func (t *tracer) self(i int) float64 {
	var kids [][2]int64
	for _, s := range t.spans {
		if s.Parent == i {
			kids = append(kids, [2]int64{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
	covered, reach := int64(0), int64(-1)
	for _, k := range kids {
		if k[0] > reach {
			covered += k[1] - k[0]
			reach = k[1]
		} else if k[1] > reach {
			covered += k[1] - reach
			reach = k[1]
		}
	}
	return float64(t.spans[i].End-t.spans[i].Start-covered) / 1e9
}

// find returns the index of the first span named name, or -1.
func (t *tracer) find(name string) int {
	for i, s := range t.spans {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// inPhase runs f with the pprof label phase=<phase>, so the CPU
// profile can be split into set-up and run samples. Goroutines f
// starts inherit the label.
func inPhase(phase string, f func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { f() })
}

// profiledPackages are the packages whose CPU self time the traced run
// reports. "runtime" collects every standard-library and runtime
// symbol; the other names are greenvm/internal packages.
var profiledPackages = []string{
	"vm", "isa", "mem", "energy", "jit", "core", "radio", "fleet",
	"obs", "experiments", "bytecode", "lang", "runtime",
}

// setupPackages are the packages whose set-up phase self time is
// reported: the ones that compile and profile the apps.
var setupPackages = []string{"lang", "bytecode", "jit", "vm", "isa", "mem", "core", "experiments", "runtime"}

const modulePrefix = "greenvm/internal/"

// foldTop reads `go tool pprof -top -unit=ms` output and sums the flat
// column by package. Symbols under greenvm/internal/<pkg> fold into
// <pkg>; symbols of the benchmark's own main package into "bench";
// everything else (runtime, standard library, assembly stubs) into
// "runtime". It returns the per-package milliseconds and their total.
func foldTop(r io.Reader) (map[string]float64, float64, error) {
	byPkg := map[string]float64{}
	var total float64
	inTable := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof -top: flat column %q: %w", fields[0], err)
		}
		pkg := packageOf(fields[5])
		byPkg[pkg] += ms
		total += ms
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !inTable {
		return nil, 0, fmt.Errorf("pprof -top: no table header in output")
	}
	return byPkg, total, nil
}

// packageOf maps a pprof symbol to its report bucket (see foldTop).
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may name other packages
	}
	if strings.HasPrefix(sym, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(sym, modulePrefix)
	if !ok {
		return "runtime"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// foldProfile runs `go tool pprof -top` on a CPU profile, keeping only
// the samples labelled phase=<phase>, and folds the result by package.
func foldProfile(path, phase string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-tagfocus=phase="+phase, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTop(bytes.NewReader(out))
}

// profileTo starts a CPU profile written to path. The returned stop
// function ends it and closes the file; calls after the first return
// the first call's result.
func profileTo(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return sync.OnceValue(func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}), nil
}

// runtimeSample is a reading of the runtime counters a traced rep
// reports as deltas over its run phase.
type runtimeSample struct {
	allocBytes    uint64
	gcCPU, totCPU float64
	procCPU       time.Duration
	liveHeapBytes uint64
	wall          time.Time
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		allocBytes:    s[0].Value.Uint64(),
		gcCPU:         s[1].Value.Float64(),
		totCPU:        s[2].Value.Float64(),
		liveHeapBytes: s[3].Value.Uint64(),
		procCPU:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wall:          time.Now(),
	}
}

// liveHeap forces a collection and returns the bytes it left live.
func liveHeap() uint64 {
	runtime.GC()
	return readRuntime().liveHeapBytes
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed pure-Go integer loop and returns the median
// of five timings in milliseconds: a box-speed reference stored next
// to every measurement, so runs on different machines can be told
// apart from code changes.
func calibrate() float64 {
	times := make([]float64, 5)
	for i := range times {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 30_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return percentile(times, 50)
}
