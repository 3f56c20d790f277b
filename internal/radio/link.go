package radio

import (
	"errors"

	"greenvm/internal/energy"
	"greenvm/internal/rng"
)

// ErrConnectionLost reports that the link dropped during an exchange;
// the paper's framework falls back to local execution when the result
// does not arrive within a timeout. Transport implementations wrap
// this error, so callers must test with errors.Is.
var ErrConnectionLost = errors.New("radio: connection to server lost")

// Link couples a chip set with a channel process and charges client
// communication energy to an account. The server side is resource-rich
// and its energy is not modelled, matching the paper.
type Link struct {
	Chip *Chipset
	Ch   Channel
	// Tracker provides the client's channel estimate used to choose
	// the transmit power setting.
	Tracker *PilotTracker
	// Fault, when set, decides which transfers are lost (an i.i.d.
	// coin, burst outages; see FaultModel); nil loses none.
	Fault FaultModel

	acct *energy.Account
	r    *rng.RNG

	// Telemetry.
	BytesSent     int
	BytesReceived int
	Exchanges     int
	Losses        int
	Retransmits   int
}

// Telemetry is a snapshot of a link's counters, for surfacing through
// stats sinks without handing out the live Link.
type Telemetry struct {
	BytesSent     int
	BytesReceived int
	Exchanges     int
	Losses        int
	Retransmits   int
}

// Telemetry snapshots the link's counters.
func (l *Link) Telemetry() Telemetry {
	return Telemetry{
		BytesSent:     l.BytesSent,
		BytesReceived: l.BytesReceived,
		Exchanges:     l.Exchanges,
		Losses:        l.Losses,
		Retransmits:   l.Retransmits,
	}
}

// NewLink builds a link charging the given account.
func NewLink(chip *Chipset, ch Channel, acct *energy.Account, r *rng.RNG) *Link {
	return &Link{
		Chip:    chip,
		Ch:      ch,
		Tracker: NewPilotTracker(ch, 0, r),
		acct:    acct,
		r:       r,
	}
}

// EstimateClass returns the client's current channel estimate.
func (l *Link) EstimateClass() Class { return l.Tracker.Estimate() }

// Send transmits payloadBytes to the server at the power setting for
// the estimated channel condition, charging transmit energy and
// returning the air time. When the tracker overestimates the channel
// (a too-weak power setting for the true condition), the transmission
// fails and is repeated at the true setting: estimation errors cost
// energy, never save it. A lost transfer costs neither time nor
// energy here; the caller prices the timeout it waits out.
func (l *Link) Send(payloadBytes int) (energy.Seconds, error) {
	if l.lost(DirSend) {
		return 0, ErrConnectionLost
	}
	cls := l.Tracker.Estimate()
	actual := l.Ch.Current()
	var t energy.Seconds
	if cls > actual {
		// Underpowered attempt: full air time wasted, then retransmit.
		l.acct.AddRadio(true, l.Chip.TxEnergy(payloadBytes, cls))
		t += l.Chip.AirTime(payloadBytes, cls)
		l.Retransmits++
		cls = actual
	}
	l.acct.AddRadio(true, l.Chip.TxEnergy(payloadBytes, cls))
	l.BytesSent += payloadBytes
	return t + l.Chip.AirTime(payloadBytes, cls), nil
}

// Recv receives payloadBytes from the server, charging receive energy
// and returning the air time. Reception timing follows the true
// channel condition (the base station transmits at the right setting).
func (l *Link) Recv(payloadBytes int) (energy.Seconds, error) {
	if l.lost(DirRecv) {
		return 0, ErrConnectionLost
	}
	cls := l.Ch.Current()
	l.acct.AddRadio(false, l.Chip.RxEnergy(payloadBytes, cls))
	l.BytesReceived += payloadBytes
	return l.Chip.AirTime(payloadBytes, cls), nil
}

// Listen charges receiver power for a waiting window of duration t
// (the client's receiver must be up while expecting data).
func (l *Link) Listen(t energy.Seconds) {
	l.acct.AddRadio(false, energy.Energy(l.Chip.RxPower(), t))
}

// Control receives a small control frame (a server busy rejection, a
// handshake reply) at the true channel condition, charging receive
// energy and returning the air time. The fault model is not consulted:
// the frame itself is the signal the caller is reacting to, so judging
// it lost again would double-count the failure.
func (l *Link) Control(payloadBytes int) energy.Seconds {
	cls := l.Ch.Current()
	l.acct.AddRadio(false, l.Chip.RxEnergy(payloadBytes, cls))
	l.BytesReceived += payloadBytes
	return l.Chip.AirTime(payloadBytes, cls)
}

// StepChannel advances the channel process between invocations.
func (l *Link) StepChannel() {
	l.Ch.Step()
}

// lost rules on one transfer via the fault model.
func (l *Link) lost(dir Direction) bool {
	l.Exchanges++
	if l.Fault == nil || !l.Fault.Judge(dir, l.r).Lost {
		return false
	}
	l.Losses++
	return true
}
