package radio

import (
	"math"
	"slices"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/rng"
)

func faultTestLink(f FaultModel, seed uint64) (*Link, *energy.Account) {
	acct := energy.NewAccount(energy.MicroSPARCIIep())
	l := NewLink(WCDMA(), Fixed{Cls: Class4}, acct, rng.New(seed))
	l.Fault = f
	return l, acct
}

func TestGilbertElliottStationaryRateAndBurstLength(t *testing.T) {
	const (
		rate  = 0.2
		burst = 5.0
		n     = 200000
	)
	ge := NewGilbertElliott(rate, burst)
	r := rng.New(7)
	losses, bursts, run := 0, 0, 0
	var runs []int
	for i := 0; i < n; i++ {
		if ge.Judge(r) {
			losses++
			run++
		} else if run > 0 {
			bursts++
			runs = append(runs, run)
			run = 0
		}
	}
	got := float64(losses) / n
	if math.Abs(got-rate) > 0.02 {
		t.Errorf("stationary loss rate %.3f, want ~%.2f", got, rate)
	}
	var sum int
	for _, r := range runs {
		sum += r
	}
	mean := float64(sum) / float64(len(runs))
	if math.Abs(mean-burst) > 0.5 {
		t.Errorf("mean burst length %.2f, want ~%.1f", mean, burst)
	}
	// Burstiness: bursts of >= 3 consecutive losses must be far more
	// common than under an i.i.d. coin with the same rate.
	long := 0
	for _, r := range runs {
		if r >= 3 {
			long++
		}
	}
	if frac := float64(long) / float64(len(runs)); frac < 0.3 {
		t.Errorf("only %.1f%% of bursts are >= 3 transfers; process is not bursty", frac*100)
	}
}

func TestGilbertElliottDeterministic(t *testing.T) {
	run := func() []bool {
		ge := NewGilbertElliott(0.3, 4)
		r := rng.New(99)
		out := make([]bool, 200)
		for i := range out {
			out[i] = ge.Judge(r)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged under identical seeds", i)
		}
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("outage rate 1.0 should panic")
		}
	}()
	NewGilbertElliott(1.0, 5)
}

func TestFaultStreamIndependentOfOutcome(t *testing.T) {
	// Each model draws one number per transfer, lost or not, so its
	// random stream depends only on the number of transfers: after n
	// verdicts the rng stands where n plain draws leave it, and a
	// different mix of fates cannot desynchronize seeded runs.
	const n = 200
	for _, f := range []FaultModel{NewGilbertElliott(0.3, 3), IIDLoss{P: 0.2}} {
		r, ref := rng.New(11), rng.New(11)
		var lost []bool
		for i := 0; i < n; i++ {
			lost = append(lost, f.Judge(r))
			ref.Float64()
		}
		if r.Uint64() != ref.Uint64() {
			t.Errorf("%T: the rng position after %d verdicts depends on their fates", f, n)
		}
		if !slices.Contains(lost, true) || !slices.Contains(lost, false) {
			t.Errorf("%T: degenerate verdict stream: all lost or none", f)
		}
	}
}

func TestLinkTelemetrySnapshot(t *testing.T) {
	l, _ := faultTestLink(IIDLoss{P: 0.5}, 13)
	for i := 0; i < 20; i++ {
		l.Send(50)  //nolint:errcheck // losses are the point
		l.Recv(100) //nolint:errcheck
	}
	tel := l.Telemetry()
	if tel.Exchanges != 40 {
		t.Errorf("exchanges = %d, want 40", tel.Exchanges)
	}
	if tel.Losses == 0 || tel.Losses == 40 {
		t.Errorf("losses = %d, want some but not all", tel.Losses)
	}
	if tel.BytesSent == 0 || tel.BytesReceived == 0 {
		t.Error("some transfers in each direction should have survived")
	}
	if tel.Losses != l.Losses || tel.BytesSent != l.BytesSent {
		t.Error("snapshot diverges from live counters")
	}
}
