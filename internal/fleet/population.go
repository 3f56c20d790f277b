package fleet

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"greenvm/internal/core"
	"greenvm/internal/energy"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
)

// A Population describes a cohort of simulated handsets without
// materializing one ClientSpec per handset: every client's spec is a
// pure function of the population seed and the client index, so a
// 100k-client fleet costs a few dozen bytes of description until the
// engine actually needs a client. The expansion is deterministic —
// the same options and seed always produce the same cohort — and
// ClientAt(i) is safe to call from any goroutine.
type Population struct {
	n          int
	seed       uint64
	strategies []core.Strategy
	channels   []ChannelKind
	// class pins ChannelFixed's class and seeds the Markov channels'
	// starting class (zero keeps the defaults; see ClientSpec.Class).
	class      radio.Class
	outageFrac float64
	burstLen   float64
	outageMod  int
	execs      int
	sizes      []int
	arrival    ArrivalSpec
	drift      DriftSpec
}

// PopOption shapes a Population at construction.
type PopOption func(*Population)

// WithSeed sets the population seed every per-client stream derives
// from (default 1).
func WithSeed(seed uint64) PopOption {
	return func(p *Population) { p.seed = seed }
}

// WithStrategyMix cycles the given strategies across the cohort
// (client i gets strategies[i mod len]).
func WithStrategyMix(strategies ...core.Strategy) PopOption {
	return func(p *Population) {
		if len(strategies) > 0 {
			p.strategies = strategies
		}
	}
}

// WithChannelMix cycles the given channel kinds across the cohort
// (default fixed, uniform, markov).
func WithChannelMix(kinds ...ChannelKind) PopOption {
	return func(p *Population) {
		if len(kinds) > 0 {
			p.channels = kinds
		}
	}
}

// WithOutage attaches a Gilbert–Elliott lossy link (stationary loss
// fraction frac in [0, 1), mean burst length burst) to every every-th
// client; every <= 0 disables outages. The default is every fifth
// client at 0.15/3.
func WithOutage(frac, burst float64, every int) PopOption {
	return func(p *Population) {
		p.outageFrac, p.burstLen, p.outageMod = frac, burst, every
	}
}

// WithExecutions sets how many application executions each client
// runs (default 1).
func WithExecutions(execs int) PopOption {
	return func(p *Population) { p.execs = execs }
}

// WithSizes overrides the workload's input-size population for every
// client in the cohort.
func WithSizes(sizes ...int) PopOption {
	return func(p *Population) { p.sizes = sizes }
}

// WithArrivalCurve spreads client start times over virtual time
// according to the curve (see ArrivalSpec); the zero spec means every
// client arrives at t=0.
func WithArrivalCurve(a ArrivalSpec) PopOption {
	return func(p *Population) { p.arrival = a }
}

// WithChannelDrift sets the drift parameters used by clients whose
// channel kind is ChannelDrifting.
func WithChannelDrift(d DriftSpec) PopOption {
	return func(p *Population) { p.drift = d }
}

// NewPopulation builds a cohort description of n handsets. With no
// options the expansion is the historical mixed cohort: IDs "pda-%02d",
// strategies cycled (default all-R), channels cycled
// fixed/uniform/markov, every fifth client on a 0.15/3 lossy link,
// one execution each, seed 1.
func NewPopulation(n int, opts ...PopOption) *Population {
	p := &Population{
		n:          n,
		seed:       1,
		strategies: []core.Strategy{core.StrategyR},
		channels:   []ChannelKind{ChannelFixed, ChannelUniform, ChannelMarkov},
		outageFrac: 0.15,
		burstLen:   3,
		outageMod:  5,
		execs:      1,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(p)
		}
	}
	return p
}

// N is the cohort size.
func (p *Population) N() int { return p.n }

// Arrival returns the cohort's arrival curve.
func (p *Population) Arrival() ArrivalSpec { return p.arrival }

// Drift returns the cohort's channel-drift parameters.
func (p *Population) Drift() DriftSpec { return p.drift }

// ClientAt expands client i's spec. The expansion depends only on the
// population's options, its seed and i.
func (p *Population) ClientAt(i int) ClientSpec {
	cs := ClientSpec{
		ID:         fmt.Sprintf("pda-%02d", i),
		Strategy:   p.strategies[i%len(p.strategies)],
		Channel:    p.channels[i%len(p.channels)],
		Class:      p.class,
		Executions: p.execs,
		Sizes:      p.sizes,
		Seed:       mix(p.seed, uint64(i)),
	}
	if p.outageMod > 0 && i%p.outageMod == p.outageMod-1 {
		cs.Outage, cs.Burst = p.outageFrac, p.burstLen
	}
	return cs
}

// validate rejects cohort parameters the client channel and fault
// models cannot take, so a bad spec fails Run instead of panicking in a
// client goroutine.
func (p *Population) validate() error {
	if err := p.arrival.validate(); err != nil {
		return err
	}
	d := p.drift.withDefaults()
	if !(d.Depth >= 0 && d.Depth <= 0.5) {
		return fmt.Errorf("fleet: channel drift depth %g must be in [0, 0.5]", d.Depth)
	}
	if !finite(d.Period) {
		return fmt.Errorf("fleet: channel drift period %g must be finite", d.Period)
	}
	if !(d.Stay >= 0 && d.Stay <= 1) {
		return fmt.Errorf("fleet: channel drift stay probability %g must be in [0, 1]", d.Stay)
	}
	if p.outageMod > 0 {
		if !(p.outageFrac >= 0 && p.outageFrac < 1) {
			return fmt.Errorf("fleet: outage fraction %g must be in [0, 1)", p.outageFrac)
		}
		if !finite(p.burstLen) {
			return fmt.Errorf("fleet: outage burst length %g must be finite", p.burstLen)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite. Range checks
// are written so that NaN fails them; finite catches the infinities.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// StartAt returns client i's arrival time under the population's
// arrival curve.
func (p *Population) StartAt(i int) energy.Seconds {
	return p.arrival.startTime(mix(p.seed, uint64(i)))
}

// ArrivalKind selects the shape of a cohort's arrival-rate curve.
type ArrivalKind int

const (
	// ArriveNone starts every client at t=0 (the historical shape).
	ArriveNone ArrivalKind = iota
	// ArriveUniform spreads arrivals uniformly over the span.
	ArriveUniform
	// ArriveDiurnal draws arrivals from a sinusoidal rate over the
	// span — one synthetic day with a mid-span peak and quiet edges.
	ArriveDiurnal
)

func (k ArrivalKind) String() string {
	switch k {
	case ArriveNone:
		return "none"
	case ArriveUniform:
		return "uniform"
	case ArriveDiurnal:
		return "diurnal"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// arrivalKinds maps the -arrival flag names, in suggestion order.
var arrivalKinds = []struct {
	name string
	kind ArrivalKind
}{
	{"none", ArriveNone},
	{"uniform", ArriveUniform},
	{"diurnal", ArriveDiurnal},
}

// ArrivalSpec is a cohort arrival-rate curve. Span is the virtual
// window arrivals spread over; Amplitude in [0, 1] shapes the
// diurnal swing (peak rate = (1+A) x mean, trough = (1-A) x mean).
type ArrivalSpec struct {
	Kind      ArrivalKind
	Span      energy.Seconds
	Amplitude float64
}

func (a ArrivalSpec) String() string {
	switch a.Kind {
	case ArriveNone:
		return "none"
	case ArriveUniform:
		return fmt.Sprintf("uniform:%g", float64(a.Span))
	default:
		return fmt.Sprintf("diurnal:%g/%g", float64(a.Span), a.Amplitude)
	}
}

// validate rejects malformed curves.
func (a ArrivalSpec) validate() error {
	if a.Kind == ArriveNone {
		return nil
	}
	if !(a.Span > 0) || !finite(float64(a.Span)) {
		return fmt.Errorf("fleet: arrival span %g must be a positive, finite number of virtual seconds", float64(a.Span))
	}
	if !(a.Amplitude >= 0 && a.Amplitude <= 1) {
		return fmt.Errorf("fleet: arrival amplitude %g must be in [0, 1]", a.Amplitude)
	}
	return nil
}

// startTime draws one arrival from the curve, seeded by the client
// seed. It is a pure function — bisection against the closed-form
// CDF, fixed iteration count — so engines can compute a client's
// arrival bound without constructing the client.
func (a ArrivalSpec) startTime(clientSeed uint64) energy.Seconds {
	if a.Kind == ArriveNone || a.Span <= 0 {
		return 0
	}
	u := rng.New(mix(clientSeed, 0x41)).Float64()
	if a.Kind == ArriveUniform {
		return a.Span * energy.Seconds(u)
	}
	// Diurnal: rate(t) = 1 + A*sin(2*pi*t/S - pi/2) over [0, S] —
	// quiet at the edges, peaking mid-span. The CDF is closed-form;
	// invert by bisection (monotone since A <= 1 keeps rate >= 0).
	span := float64(a.Span)
	lo, hi := 0.0, span
	for iter := 0; iter < 52; iter++ {
		mid := (lo + hi) / 2
		if diurnalCDF(mid, span, a.Amplitude) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return energy.Seconds((lo + hi) / 2)
}

// diurnalCDF is the normalized integral of 1 + A*sin(2*pi*t/S - pi/2)
// from 0 to t.
func diurnalCDF(t, span, amp float64) float64 {
	x := 2 * math.Pi * t / span
	// Integral of sin(x - pi/2) dx = -cos(x - pi/2); at 0 it is
	// -cos(-pi/2) = 0, so the accumulated sine term is
	// (S/2pi) * (cos(-pi/2) - cos(x - pi/2)) = -(S/2pi)*cos(x - pi/2).
	return (t - amp*span/(2*math.Pi)*math.Cos(x-math.Pi/2)) / span
}

// ParseArrival parses an -arrival flag: "none", "uniform:SPAN" or
// "diurnal:SPAN[/AMP]" (SPAN in virtual seconds; AMP defaults to
// 0.9). Unknown kinds get a typo suggestion like -placement's.
func ParseArrival(s string) (ArrivalSpec, error) {
	name, rest, hasRest := strings.Cut(strings.TrimSpace(s), ":")
	name = strings.ToLower(strings.TrimSpace(name))
	var spec ArrivalSpec
	found := false
	for _, k := range arrivalKinds {
		if k.name == name {
			spec.Kind = k.kind
			found = true
			break
		}
	}
	if !found {
		return ArrivalSpec{}, unknownNameErr("arrival curve", name, arrivalKindNames())
	}
	if spec.Kind == ArriveNone {
		if hasRest {
			return ArrivalSpec{}, fmt.Errorf("arrival curve %q takes no parameters", name)
		}
		return spec, nil
	}
	if !hasRest || rest == "" {
		return ArrivalSpec{}, fmt.Errorf("arrival curve %q needs a span: %s:SPAN", name, name)
	}
	spanStr, ampStr, hasAmp := strings.Cut(rest, "/")
	span, err := strconv.ParseFloat(spanStr, 64)
	if err != nil {
		return ArrivalSpec{}, fmt.Errorf("arrival span %q is not a number of virtual seconds", spanStr)
	}
	spec.Span = energy.Seconds(span)
	if spec.Kind == ArriveUniform && hasAmp {
		return ArrivalSpec{}, fmt.Errorf("arrival curve %q takes no amplitude", name)
	}
	if spec.Kind == ArriveDiurnal {
		spec.Amplitude = 0.9
		if hasAmp {
			if spec.Amplitude, err = strconv.ParseFloat(ampStr, 64); err != nil {
				return ArrivalSpec{}, fmt.Errorf("arrival amplitude %q is not a number", ampStr)
			}
		}
	}
	if err := spec.validate(); err != nil {
		return ArrivalSpec{}, err
	}
	return spec, nil
}

func arrivalKindNames() []string {
	names := make([]string, len(arrivalKinds))
	for i, k := range arrivalKinds {
		names[i] = k.name
	}
	return names
}

// DriftSpec parameterizes ChannelDrifting clients: a Markov channel
// whose up/down bias swings sinusoidally over Period steps with the
// given Depth (see radio.DriftingMarkov). The zero value means no
// preset; withDefaults fills the "overnight" shape.
type DriftSpec struct {
	// Name is the preset the spec was parsed from ("" for a
	// hand-built spec).
	Name string
	// Period is the drift cycle length in channel steps.
	Period float64
	// Depth in [0, 0.5] is the bias swing.
	Depth float64
	// Stay is the Markov stay probability.
	Stay float64
}

func (d DriftSpec) withDefaults() DriftSpec {
	if d.Period <= 0 {
		d.Period = 64
	}
	if d.Depth == 0 {
		d.Depth = 0.4
	}
	if d.Stay == 0 {
		d.Stay = 0.55
	}
	return d
}

// driftPresets maps the -drift flag names, in suggestion order.
var driftPresets = []struct {
	name string
	spec DriftSpec
}{
	{"none", DriftSpec{Name: "none"}},
	{"overnight", DriftSpec{Name: "overnight", Period: 64, Depth: 0.4, Stay: 0.55}},
	{"commute", DriftSpec{Name: "commute", Period: 16, Depth: 0.45, Stay: 0.55}},
}

// ParseDrift parses a -drift flag: a preset name ("none",
// "overnight", "commute"), with typo suggestions like -placement's.
// Any preset other than "none" also switches the channel rotation to
// drifting channels when applied through fleetsim.
func ParseDrift(s string) (DriftSpec, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, p := range driftPresets {
		if p.name == name {
			return p.spec, nil
		}
	}
	return DriftSpec{}, unknownNameErr("channel drift", name, driftPresetNames())
}

func driftPresetNames() []string {
	names := make([]string, len(driftPresets))
	for i, p := range driftPresets {
		names[i] = p.name
	}
	return names
}

// unknownNameErr builds the -placement-style error for a bad name:
// the valid set, plus a "did you mean" when an entry is within edit
// distance 2.
func unknownNameErr(what, got string, valid []string) error {
	joined := strings.Join(valid, ", ")
	if sug := closestName(got, valid); sug != "" {
		return fmt.Errorf("fleet: unknown %s %q — did you mean %q? (valid: %s)", what, got, sug, joined)
	}
	return fmt.Errorf("fleet: unknown %s %q (valid: %s)", what, got, joined)
}
