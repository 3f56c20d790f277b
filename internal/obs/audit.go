package obs

import (
	"fmt"
	"io"
	"math"
	"sort"

	"greenvm/internal/core"
)

// Auditor holds the adaptive estimators to account: it pairs each
// EvEstimate (the policy's per-mode predicted energies) with the
// EvInvoke that follows it for the same method, and accumulates the
// prediction-error distribution and the regret — energy actually
// spent minus the cheapest considered estimate — per method.
// When the client runs against a multi-backend pool the auditor also
// tallies, per backend, how often placement landed there and how often
// that backend shed — the placement-quality view of the same stream.
type Auditor struct {
	pending  map[string]*core.Estimate
	methods  map[string]*methodAudit
	backends map[string]*backendAudit
	// Unpaired counts invocations that errored out between estimate
	// and outcome (the estimate is dropped, not matched to the next
	// invocation).
	Unpaired int
}

type backendAudit struct {
	placed int
	shed   int
}

type methodAudit struct {
	n         int
	sumAbsErr float64
	sumRelErr float64
	// relErr sketches the relative-error distribution in fixed-size
	// state; the old []float64 grew without bound per method and was
	// copied and sorted on every Report.
	relErr      P2
	totalRegret float64
	actual      float64
	predicted   float64
}

// NewAuditor returns an empty auditor; attach it to a client's sinks.
func NewAuditor() *Auditor {
	return &Auditor{
		pending:  map[string]*core.Estimate{},
		methods:  map[string]*methodAudit{},
		backends: map[string]*backendAudit{},
	}
}

// Emit implements core.EventSink.
func (a *Auditor) Emit(e core.Event) {
	if e.Method == nil {
		return
	}
	name := e.Method.QName()
	switch e.Kind {
	case core.EvPlace:
		a.backendFor(e.Backend).placed++
	case core.EvShed:
		// Single-server sheds name no backend; only pool runs feed the
		// per-backend table.
		if e.Backend != "" {
			a.backendFor(e.Backend).shed++
		}
	case core.EvEstimate:
		if a.pending[name] != nil {
			a.Unpaired++
		}
		a.pending[name] = e.Est
	case core.EvInvoke:
		est := a.pending[name]
		if est == nil {
			return // static policy: no decision to audit
		}
		delete(a.pending, name)
		m := a.methods[name]
		if m == nil {
			m = &methodAudit{}
			m.relErr.Reset(0.95)
			a.methods[name] = m
		}
		actual := float64(e.Energy)
		pred := est.Cost[est.Chosen]
		absErr := math.Abs(actual - pred)
		relErr := 0.0
		if actual != 0 {
			relErr = absErr / actual
		}
		m.n++
		m.sumAbsErr += absErr
		m.sumRelErr += relErr
		m.relErr.Observe(relErr)
		m.totalRegret += actual - est.BestCost()
		m.actual += actual
		m.predicted += pred
	}
}

func (a *Auditor) backendFor(id string) *backendAudit {
	b := a.backends[id]
	if b == nil {
		b = &backendAudit{}
		a.backends[id] = b
	}
	return b
}

// MethodAudit is the per-method summary of a Report.
type MethodAudit struct {
	Method string
	// N is the number of paired estimate/outcome invocations.
	N int
	// MeanAbsErr and MeanRelErr summarize |actual − predicted| for
	// the chosen mode, in joules and as a fraction of actual.
	MeanAbsErr float64
	MeanRelErr float64
	// P95RelErr is the 95th percentile of the relative error,
	// estimated by a streaming P² sketch (exact through the first five
	// paired invocations, approximate after — see quantile.go).
	P95RelErr float64
	// TotalRegret is Σ(actual − cheapest considered estimate): the
	// energy the estimator left on the table versus a clairvoyant
	// pick of its own candidates.
	TotalRegret float64
	// ActualJ and PredictedJ total the measured and predicted energy
	// of the paired invocations.
	ActualJ    float64
	PredictedJ float64
}

// BackendAudit is the per-backend placement summary of a Report: how
// many requests placement landed on the backend and how many it shed.
type BackendAudit struct {
	Backend string
	Placed  int
	Shed    int
}

// AuditReport is the auditor's summary, one row per method.
type AuditReport struct {
	Methods []MethodAudit
	// Backends holds the per-backend placement tallies, sorted by
	// backend name; empty for single-server runs.
	Backends []BackendAudit
	// Unpaired counts estimates that never met their invocation.
	Unpaired int
}

// TotalRegret sums the per-method regret.
func (r *AuditReport) TotalRegret() float64 {
	t := 0.0
	for _, m := range r.Methods {
		t += m.TotalRegret
	}
	return t
}

// Report summarizes the audited methods, sorted by name. Estimates
// still pending (their invocation errored out) count as unpaired.
func (a *Auditor) Report() *AuditReport {
	r := &AuditReport{Unpaired: a.Unpaired + len(a.pending)}
	for name, m := range a.methods {
		r.Methods = append(r.Methods, MethodAudit{
			Method:      name,
			N:           m.n,
			MeanAbsErr:  m.sumAbsErr / float64(m.n),
			MeanRelErr:  m.sumRelErr / float64(m.n),
			P95RelErr:   m.relErr.Quantile(),
			TotalRegret: m.totalRegret,
			ActualJ:     m.actual,
			PredictedJ:  m.predicted,
		})
	}
	sort.Slice(r.Methods, func(i, j int) bool { return r.Methods[i].Method < r.Methods[j].Method })
	for id, b := range a.backends {
		r.Backends = append(r.Backends, BackendAudit{Backend: id, Placed: b.placed, Shed: b.shed})
	}
	sort.Slice(r.Backends, func(i, j int) bool { return r.Backends[i].Backend < r.Backends[j].Backend })
	return r
}

// RenderAuditReport writes the report as an aligned text table.
func RenderAuditReport(w io.Writer, title string, r *AuditReport) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-28s %6s %12s %10s %10s %12s\n",
		"method", "n", "meanAbsErr", "meanRelErr", "p95RelErr", "regret(J)")
	for _, m := range r.Methods {
		fmt.Fprintf(w, "  %-28s %6d %12.4g %9.1f%% %9.1f%% %12.4g\n",
			m.Method, m.N, m.MeanAbsErr, 100*m.MeanRelErr, 100*m.P95RelErr, m.TotalRegret)
	}
	fmt.Fprintf(w, "  total regret %.4g J", r.TotalRegret())
	if r.Unpaired > 0 {
		fmt.Fprintf(w, "   (%d unpaired estimates)", r.Unpaired)
	}
	fmt.Fprintln(w)
	for _, b := range r.Backends {
		fmt.Fprintf(w, "  backend %-8s placed %6d   shed %6d\n", b.Backend, b.Placed, b.Shed)
	}
}

var _ core.EventSink = (*Auditor)(nil)
