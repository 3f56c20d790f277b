package fleet

import (
	"math"
	"sort"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/obs"
)

// Virtual-time telemetry: the engine cuts the simulated clock into
// fixed ticks and records, per window, what the admission layer did
// (served/shed/flushed/losses, queue waits) and what each backend
// looked like at the tick boundary (up, busy workers, queue depth).
// Client-side series — per-invocation energy, failovers, breaker
// transitions — accumulate in per-client windowed accumulators
// (clientAcc) that fold, in deterministic arrival order, into a
// separate aggregate store as each client retires, and merge into the
// engine's series once after the run — so every float accumulates in
// a fixed order, the exported JSONL is byte-identical across
// -workers, and no per-event history is ever retained.
//
// The engine-side half streams: every write happens inside the event
// heap under the engine lock, in heap order, which is the same
// determinism argument the engine itself makes (see engine.go). Tick
// boundaries are events on that heap — kind evTick, ordered before
// every other kind at the same instant — so the gauges sampled at
// boundary t describe the state strictly before any time-t mutation,
// and tick times are computed as tick*k (never accumulated), so they
// are bit-identical however long the run gets.

// TelemetrySpec switches a fleet run's windowed telemetry on.
type TelemetrySpec struct {
	// Tick is the window width in virtual seconds (required > 0).
	Tick energy.Seconds
	// Live, when non-nil, is a registry the engine also updates as it
	// simulates — the scrape target behind fleetsim -serve-metrics.
	// Updates go through cached child handles, so the per-event cost is
	// one mutex acquisition, no allocation.
	Live *obs.Registry
}

// tsRec is the engine's recorder: the window store plus pre-built
// series names (building them per event would allocate under the
// engine lock) and optional live-registry child handles.
type tsRec struct {
	ts   *obs.TimeSeries
	tick energy.Seconds

	// Per-backend series names, indexed by backend index.
	servedB, shedB, flushedB, lossB, downB, upB []string // window counters
	depthB, busyB, upGB                         []string // tick-boundary gauges

	live *liveHandles
}

// liveHandles caches one child handle per (metric, backend) for the
// live registry, resolved once at engine construction.
type liveHandles struct {
	served, shed []*obs.CounterChild
	up           []*obs.GaugeChild
	depth        []*obs.GaugeChild
	wait         *obs.SummaryChild
	window       *obs.GaugeChild
}

func newTSRec(spec *TelemetrySpec, pool *ServerPool) *tsRec {
	r := &tsRec{
		ts:   obs.NewTimeSeries(float64(spec.Tick)),
		tick: spec.Tick,
	}
	for _, id := range pool.ids {
		r.servedB = append(r.servedB, obs.SeriesName("served", "backend", id))
		r.shedB = append(r.shedB, obs.SeriesName("shed", "backend", id))
		r.flushedB = append(r.flushedB, obs.SeriesName("flushed", "backend", id))
		r.lossB = append(r.lossB, obs.SeriesName("chaos_loss", "backend", id))
		r.downB = append(r.downB, obs.SeriesName("backend_down", "backend", id))
		r.upB = append(r.upB, obs.SeriesName("backend_up", "backend", id))
		r.depthB = append(r.depthB, obs.SeriesName("depth", "backend", id))
		r.busyB = append(r.busyB, obs.SeriesName("busy", "backend", id))
		r.upGB = append(r.upGB, obs.SeriesName("up", "backend", id))
	}
	if spec.Live != nil {
		reg := spec.Live
		lh := &liveHandles{
			wait:   reg.Summary("fleet_live_queue_wait_seconds", "virtual queue wait of served requests (streaming quantiles)").WithLabels(),
			window: reg.Gauge("fleet_live_window", "index of the last completed telemetry window").WithLabels(),
		}
		served := reg.Counter("fleet_live_served_total", "requests served, by backend")
		shed := reg.Counter("fleet_live_sheds_total", "requests shed, by backend")
		up := reg.Gauge("fleet_live_backend_up", "1 while the backend is up")
		depth := reg.Gauge("fleet_live_backend_queue_depth", "queue depth at the last tick boundary")
		for _, id := range pool.ids {
			lh.served = append(lh.served, served.WithLabels("backend", id))
			lh.shed = append(lh.shed, shed.WithLabels("backend", id))
			lh.up = append(lh.up, up.WithLabels("backend", id))
			lh.depth = append(lh.depth, depth.WithLabels("backend", id))
			lh.up[len(lh.up)-1].Set(1)
		}
		r.live = lh
	}
	return r
}

// tickAt returns the virtual time of tick boundary k, as a product so
// boundary times never accumulate floating-point drift.
func (r *tsRec) tickAt(k int64) energy.Seconds {
	return energy.Seconds(float64(k) * float64(r.tick))
}

// boundary samples every backend's state into the window that just
// ended (tick k closes window k-1) and updates the live gauges.
func (r *tsRec) boundary(k int64, pool *ServerPool) {
	win := k - 1
	for i, b := range pool.backends {
		upv := 1.0
		if b.down {
			upv = 0
		}
		r.ts.SetIdx(win, r.upGB[i], upv)
		r.ts.SetIdx(win, r.busyB[i], float64(b.busy))
		r.ts.SetIdx(win, r.depthB[i], float64(len(b.queue)))
		if r.live != nil {
			r.live.up[i].Set(upv)
			r.live.depth[i].Set(float64(len(b.queue)))
		}
	}
	if r.live != nil {
		r.live.window.Set(float64(win))
	}
}

func (r *tsRec) arrival(t energy.Seconds) {
	r.ts.Add(float64(t), "arrivals", 1)
}

func (r *tsRec) served(t energy.Seconds, bidx int, wait energy.Seconds) {
	ft := float64(t)
	r.ts.Add(ft, "served", 1)
	r.ts.Add(ft, r.servedB[bidx], 1)
	r.ts.Add(ft, "queue_wait_sum", float64(wait))
	if r.live != nil {
		r.live.served[bidx].Add(1)
		r.live.wait.Observe(float64(wait))
	}
}

func (r *tsRec) shed(t energy.Seconds, bidx int) {
	ft := float64(t)
	r.ts.Add(ft, "shed", 1)
	r.ts.Add(ft, r.shedB[bidx], 1)
	if r.live != nil {
		r.live.shed[bidx].Add(1)
	}
}

func (r *tsRec) chaosLoss(t energy.Seconds, bidx int) {
	r.ts.Add(float64(t), r.lossB[bidx], 1)
}

func (r *tsRec) unreachable(t energy.Seconds) {
	r.ts.Add(float64(t), "unreachable", 1)
}

func (r *tsRec) backendDown(t energy.Seconds, bidx, flushed int) {
	ft := float64(t)
	r.ts.Add(ft, r.downB[bidx], 1)
	if flushed > 0 {
		r.ts.Add(ft, r.flushedB[bidx], float64(flushed))
	}
	if r.live != nil {
		r.live.up[bidx].Set(0)
	}
}

func (r *tsRec) backendUp(t energy.Seconds, bidx int) {
	r.ts.Add(float64(t), r.upB[bidx], 1)
	if r.live != nil {
		r.live.up[bidx].Set(1)
	}
}

// breakerBackend names the breaker's scope in series labels: the
// backend for per-backend breakers, "link" for the global one.
func breakerBackend(b string) string {
	if b == "" {
		return "link"
	}
	return b
}

// clientAcc is the per-client telemetry sink: instead of buffering
// every event (which held the whole fleet's event history in memory),
// it accumulates per-window deltas while the client runs and is
// folded — then dropped — the moment the client's result emits. A
// 100k fleet's client telemetry therefore costs O(live clients x
// active windows), not O(total events). Each client owns one and its
// Emit runs on that client's goroutine only.
type clientAcc struct {
	tick  float64
	wins  map[int64]*accWin
	trans []accTransition
	seq   int
}

// accWin is one client's deltas inside one telemetry window.
type accWin struct {
	energy      float64
	invocations float64
	fallback    float64
	failover    float64
	// Keyed by breakerBackend label; nil until first use.
	probes                    map[string]float64
	breakerOpen, breakerClose map[string]float64
}

// accTransition is one breaker open/close edge, kept exactly (not
// windowed) for the post-run breakers_open gauge replay.
type accTransition struct {
	at      energy.Seconds
	seq     int
	backend string
	open    bool
}

func newClientAcc(tick float64) *clientAcc {
	return &clientAcc{tick: tick, wins: map[int64]*accWin{}}
}

// winAt returns the accumulator window covering virtual time at. The
// index formula matches obs.TimeSeries.IndexOf, so folds land in the
// same windows direct Adds would have.
func (a *clientAcc) winAt(at energy.Seconds) *accWin {
	i := int64(math.Floor(float64(at) / a.tick))
	w := a.wins[i]
	if w == nil {
		w = &accWin{}
		a.wins[i] = w
	}
	return w
}

// Emit implements core.EventSink, keeping only the kinds the windows
// chart.
func (a *clientAcc) Emit(e core.Event) {
	switch e.Kind {
	case core.EvInvoke:
		w := a.winAt(e.At)
		w.energy += float64(e.Energy)
		w.invocations++
	case core.EvFallback:
		a.winAt(e.At).fallback++
	case core.EvFailover:
		a.winAt(e.At).failover++
	case core.EvProbe:
		w := a.winAt(e.At)
		if w.probes == nil {
			w.probes = map[string]float64{}
		}
		w.probes[breakerBackend(e.Backend)]++
	case core.EvLinkDown, core.EvLinkUp:
		a.seq++
		open := e.Kind == core.EvLinkDown
		a.trans = append(a.trans, accTransition{at: e.At, seq: a.seq, backend: breakerBackend(e.Backend), open: open})
		w := a.winAt(e.At)
		if open {
			if w.breakerOpen == nil {
				w.breakerOpen = map[string]float64{}
			}
			w.breakerOpen[breakerBackend(e.Backend)]++
		} else {
			if w.breakerClose == nil {
				w.breakerClose = map[string]float64{}
			}
			w.breakerClose[breakerBackend(e.Backend)]++
		}
	}
}

var _ core.EventSink = (*clientAcc)(nil)

// clientFold aggregates client accumulators as their results emit.
// It writes into its own window store — never the engine's, which the
// engine mutates concurrently — and merges into the engine's series
// once, post-run. Folds happen in arrival order under the emitter's
// lock, so every float accumulates in a fixed order and the merged
// JSONL stays byte-identical across concurrency.
type clientFold struct {
	ts    *obs.TimeSeries
	trans []foldTransition
	names map[string]string // label -> SeriesName cache, per metric kind
}

type foldTransition struct {
	at          energy.Seconds
	client, seq int
	backend     string
	open        bool
}

func newClientFold(tick energy.Seconds) *clientFold {
	return &clientFold{
		ts:    obs.NewTimeSeries(float64(tick)),
		names: map[string]string{},
	}
}

func (f *clientFold) name(kind, backend string) string {
	key := kind + "\x00" + backend
	n, ok := f.names[key]
	if !ok {
		n = obs.SeriesName(kind, "backend", backend)
		f.names[key] = n
	}
	return n
}

// fold drains one client's accumulator: windows in index order, and
// within each window a fixed series order, so the accumulation order
// is a pure function of the emission order.
func (f *clientFold) fold(a *clientAcc, clientIdx int) {
	if a == nil {
		return
	}
	idxs := make([]int64, 0, len(a.wins))
	for i := range a.wins {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, i := range idxs {
		w := a.wins[i]
		if w.energy != 0 {
			f.ts.AddIdx(i, "energy_j", w.energy)
		}
		if w.invocations != 0 {
			f.ts.AddIdx(i, "invocations", w.invocations)
		}
		if w.fallback != 0 {
			f.ts.AddIdx(i, "fallback", w.fallback)
		}
		if w.failover != 0 {
			f.ts.AddIdx(i, "failover", w.failover)
		}
		f.foldLabeled(i, "probe", w.probes)
		f.foldLabeled(i, "breaker_open", w.breakerOpen)
		f.foldLabeled(i, "breaker_close", w.breakerClose)
	}
	for _, t := range a.trans {
		f.trans = append(f.trans, foldTransition{at: t.at, client: clientIdx, seq: t.seq, backend: t.backend, open: t.open})
	}
}

func (f *clientFold) foldLabeled(win int64, kind string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	labels := make([]string, 0, len(m))
	for b := range m {
		labels = append(labels, b)
	}
	sort.Strings(labels)
	for _, b := range labels {
		f.ts.AddIdx(win, f.name(kind, b), m[b])
	}
}

// mergeInto folds the aggregated client series into the engine's
// window store (post-run, single-threaded): per-window counters in
// index order with sorted names, then the time-ordered breaker
// transition replay into per-window breakers_open gauges. The replay
// sort key (at, client, seq) is unique, so the merge is a pure
// function of the folds.
func (f *clientFold) mergeInto(ts *obs.TimeSeries) {
	for _, w := range f.ts.Windows() {
		names := make([]string, 0, len(w.Counters))
		for n := range w.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			ts.AddIdx(w.Index, n, w.Counters[n])
		}
	}

	trans := f.trans
	sort.Slice(trans, func(i, j int) bool {
		if trans[i].at != trans[j].at {
			return trans[i].at < trans[j].at
		}
		if trans[i].client != trans[j].client {
			return trans[i].client < trans[j].client
		}
		return trans[i].seq < trans[j].seq
	})

	// Replay: walk the (now final) windows in order, applying every
	// transition that happened before a window's end, and record how
	// many client breakers were open per backend when it closed.
	wins := ts.Windows()
	open := map[string]int{}
	names := map[string]string{}
	var sorted []string
	j := 0
	for wi := range wins {
		w := wins[wi]
		for j < len(trans) && trans[j].at < energy.Seconds(w.End) {
			t := trans[j]
			if _, ok := open[t.backend]; !ok {
				names[t.backend] = obs.SeriesName("breakers_open", "backend", t.backend)
				sorted = append(sorted, t.backend)
				sort.Strings(sorted)
			}
			if t.open {
				open[t.backend]++
			} else if open[t.backend] > 0 {
				open[t.backend]--
			}
			j++
		}
		for _, b := range sorted {
			ts.SetIdx(w.Index, names[b], float64(open[b]))
		}
	}
}
