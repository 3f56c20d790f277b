package radio

import (
	"fmt"

	"greenvm/internal/rng"
)

// Fault injection: the paper's framework must survive a hostile
// wireless link (§3.2: when the result does not arrive within a time
// threshold, connectivity is considered lost and execution falls back
// locally). A single i.i.d. per-transfer coin understates reality —
// real outages are bursty (shadowing, handoffs). FaultModel makes the
// failure process pluggable; every model draws from the link's
// deterministic rng so seeded experiment grids stay byte-reproducible.

// FaultModel decides the fate of each transfer on a link, sends and
// receptions alike. Judge is called exactly once per transfer, in
// transfer order, with the link's deterministic rng, and reports
// whether the transfer is lost (it then fails with ErrConnectionLost);
// stateful models (burst processes) advance on every call regardless
// of outcome, so a model's random stream depends only on the number of
// transfers, never on their fates.
type FaultModel interface {
	Judge(r *rng.RNG) bool
}

// IIDLoss loses each transfer independently with probability P — the
// classic single-coin model.
type IIDLoss struct {
	P float64
}

// Judge implements FaultModel.
func (f IIDLoss) Judge(r *rng.RNG) bool {
	return f.P > 0 && r.Float64() < f.P
}

// GilbertElliott is a two-state burst-outage process: the link
// alternates between an Up state (transfers succeed) and a Down state
// (transfers are lost), with geometrically distributed residence
// times. It is parameterized by the stationary outage rate (long-run
// fraction of transfers that fall in Down periods) and the mean Down
// burst length in transfers, which matches how outages are reported
// in measurement studies.
type GilbertElliott struct {
	// OutageRate is the stationary fraction of lost transfers, in
	// [0, 1).
	OutageRate float64
	// MeanBurst is the mean length of a Down period in transfers
	// (>= 1).
	MeanBurst float64

	down    bool
	started bool
}

// NewGilbertElliott builds the burst process. outageRate is the
// stationary loss fraction in [0, 1); meanBurst the mean outage
// length in transfers (clamped to >= 1).
func NewGilbertElliott(outageRate, meanBurst float64) *GilbertElliott {
	if outageRate < 0 || outageRate >= 1 {
		panic(fmt.Sprintf("radio: outage rate %g outside [0, 1)", outageRate))
	}
	if meanBurst < 1 {
		meanBurst = 1
	}
	return &GilbertElliott{OutageRate: outageRate, MeanBurst: meanBurst}
}

// Down reports whether the process is currently in its outage state.
func (f *GilbertElliott) Down() bool { return f.down }

// Judge implements FaultModel: advance the two-state chain, then rule
// by the current state. Exit probability 1/MeanBurst gives the
// configured mean burst length; the entry probability is derived so
// the stationary Down fraction equals OutageRate.
func (f *GilbertElliott) Judge(r *rng.RNG) bool {
	if f.OutageRate <= 0 {
		return false
	}
	exitP := 1 / f.MeanBurst
	enterP := exitP * f.OutageRate / (1 - f.OutageRate)
	if enterP > 1 {
		enterP = 1
	}
	if !f.started {
		// Start in the stationary distribution so short scenarios see
		// the configured outage rate.
		f.started = true
		f.down = r.Float64() < f.OutageRate
	} else if f.down {
		if r.Float64() < exitP {
			f.down = false
		}
	} else {
		if r.Float64() < enterP {
			f.down = true
		}
	}
	return f.down
}
