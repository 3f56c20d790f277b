package radio

import (
	"errors"
	"math"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/rng"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestFig2Powers(t *testing.T) {
	c := WCDMA()
	// Rx = mixer + demodulator + ADC + VCO.
	wantRx := 0.03375 + 0.0378 + 0.710 + 0.090
	if got := float64(c.RxPower()); !approx(got, wantRx, 1e-12) {
		t.Errorf("RxPower = %g, want %g", got, wantRx)
	}
	// Tx(Class1) = DAC + PA(5.88) + driver + modulator + VCO.
	wantTx1 := 0.185 + 5.88 + 0.1026 + 0.108 + 0.090
	if got := float64(c.TxPower(Class1)); !approx(got, wantTx1, 1e-12) {
		t.Errorf("TxPower(C1) = %g, want %g", got, wantTx1)
	}
	wantTx4 := 0.185 + 0.37 + 0.1026 + 0.108 + 0.090
	if got := float64(c.TxPower(Class4)); !approx(got, wantTx4, 1e-12) {
		t.Errorf("TxPower(C4) = %g, want %g", got, wantTx4)
	}
	// Ordering across classes.
	for cls := Class1; cls < Class4; cls++ {
		if c.TxPower(cls) <= c.TxPower(cls+1) {
			t.Errorf("TxPower(%v) should exceed TxPower(%v)", cls, cls+1)
		}
	}
}

func TestTxPowerPanicsOnBadClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	WCDMA().TxPower(Class(0))
}

func TestTimingAndEnergy(t *testing.T) {
	c := WCDMA()
	// 1000-byte payload + 48 overhead = 8384 bits at 2.3 Mbps (full
	// rate under the best channel condition).
	wantT := 8384.0 / 2.3e6
	if got := float64(c.AirTime(1000, Class4)); !approx(got, wantT, 1e-12) {
		t.Errorf("AirTime = %g, want %g", got, wantT)
	}
	// A degraded channel lowers the effective rate and lengthens air
	// time in both directions.
	if c.AirTime(1000, Class1) <= c.AirTime(1000, Class4) {
		t.Error("air time should grow as the channel degrades")
	}
	e := float64(c.TxEnergy(1000, Class4))
	if !approx(e, wantT*float64(c.TxPower(Class4)), 1e-12) {
		t.Errorf("TxEnergy inconsistent with power x time")
	}
	if c.EnergyPerTxBit(Class1) <= c.EnergyPerTxBit(Class4) {
		t.Error("per-bit energy should fall with better channel")
	}
	if c.EnergyPerRxBit(Class4) <= 0 {
		t.Error("per-bit receive energy must be positive")
	}
	if c.EnergyPerRxBit(Class1) <= c.EnergyPerRxBit(Class4) {
		t.Error("per-bit receive energy should grow as the channel degrades")
	}
}

func TestIIDDistribution(t *testing.T) {
	r := rng.New(1)
	ch := PredominantlyGood(r)
	counts := map[Class]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[ch.Current()]++
		ch.Step()
	}
	if frac := float64(counts[Class4]) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("good channel Class4 fraction = %g, want ~0.75", frac)
	}
	ch2 := PredominantlyPoor(rng.New(2))
	counts2 := map[Class]int{}
	for i := 0; i < n; i++ {
		counts2[ch2.Current()]++
		ch2.Step()
	}
	if frac := float64(counts2[Class1]) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("poor channel Class1 fraction = %g, want ~0.75", frac)
	}
	ch3 := UniformChannel(rng.New(3))
	counts3 := map[Class]int{}
	for i := 0; i < n; i++ {
		counts3[ch3.Current()]++
		ch3.Step()
	}
	for cls := Class1; cls <= Class4; cls++ {
		if frac := float64(counts3[cls]) / n; math.Abs(frac-0.25) > 0.02 {
			t.Errorf("uniform channel %v fraction = %g", cls, frac)
		}
	}
}

func TestMarkovStaysInRange(t *testing.T) {
	ch := NewMarkov(Class2, 0.8, rng.New(7))
	transitions := 0
	prev := ch.Current()
	for i := 0; i < 5000; i++ {
		ch.Step()
		c := ch.Current()
		if !c.Valid() {
			t.Fatalf("invalid class %d", c)
		}
		if c != prev {
			transitions++
			if c != prev-1 && c != prev+1 {
				t.Fatalf("non-adjacent transition %v -> %v", prev, c)
			}
		}
		prev = c
	}
	frac := float64(transitions) / 5000
	if math.Abs(frac-0.2) > 0.03 {
		t.Errorf("transition rate = %g, want ~0.2", frac)
	}
}

func TestPilotTrackerErrors(t *testing.T) {
	ch := Fixed{Cls: Class3}
	exact := NewPilotTracker(ch, 0, nil)
	if exact.Estimate() != Class3 {
		t.Error("error-free tracker should be exact")
	}
	noisy := NewPilotTracker(ch, 1.0, rng.New(5))
	if got := noisy.Estimate(); got != Class4 {
		t.Errorf("always-wrong tracker = %v, want off-by-one Class 4", got)
	}
	edge := NewPilotTracker(Fixed{Cls: Class4}, 1.0, rng.New(5))
	if got := edge.Estimate(); got != Class3 {
		t.Errorf("clamped tracker = %v, want Class 3", got)
	}
}

func TestLinkChargesAccount(t *testing.T) {
	model := energy.MicroSPARCIIep()
	acct := energy.NewAccount(model)
	l := NewLink(WCDMA(), Fixed{Cls: Class4}, acct, rng.New(9))

	if _, err := l.Send(500); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Recv(200); err != nil {
		t.Fatal(err)
	}
	l.Listen(0.01)
	if acct.Component(energy.CompRadioTx) <= 0 {
		t.Error("no transmit energy charged")
	}
	wantRx := float64(WCDMA().RxEnergy(200, Class4)) + 0.01*float64(WCDMA().RxPower())
	if got := float64(acct.Component(energy.CompRadioRx)); !approx(got, wantRx, 1e-9) {
		t.Errorf("rx energy = %g, want %g", got, wantRx)
	}
	if l.BytesSent != 500 || l.BytesReceived != 200 {
		t.Error("telemetry wrong")
	}
}

func TestLinkChannelAffectsTxEnergy(t *testing.T) {
	model := energy.MicroSPARCIIep()
	a1 := energy.NewAccount(model)
	l1 := NewLink(WCDMA(), Fixed{Cls: Class1}, a1, nil)
	if _, err := l1.Send(1000); err != nil {
		t.Fatal(err)
	}
	a4 := energy.NewAccount(model)
	l4 := NewLink(WCDMA(), Fixed{Cls: Class4}, a4, nil)
	if _, err := l4.Send(1000); err != nil {
		t.Fatal(err)
	}
	ratio := float64(a1.Component(energy.CompRadioTx)) / float64(a4.Component(energy.CompRadioTx))
	// Power ratio 6.3656/0.8556 W times the air-time ratio 1/0.35.
	want := 6.3656 / 0.8556 / WCDMA().RateFactor(Class1)
	if !approx(ratio, want, 1e-6) {
		t.Errorf("C1/C4 energy ratio = %g, want %g", ratio, want)
	}
}

func TestLinkLoss(t *testing.T) {
	model := energy.MicroSPARCIIep()
	acct := energy.NewAccount(model)
	l := NewLink(WCDMA(), Fixed{Cls: Class4}, acct, rng.New(11))
	l.Fault = IIDLoss{P: 1}
	if _, err := l.Send(10); !errors.Is(err, ErrConnectionLost) {
		t.Errorf("err = %v, want ErrConnectionLost", err)
	}
	if l.Losses != 1 {
		t.Error("loss not counted")
	}
	l.Fault = nil
	if _, err := l.Send(10); err != nil {
		t.Errorf("send after restoring link: %v", err)
	}
}

func TestSendRetransmitOnOverestimate(t *testing.T) {
	model := energy.MicroSPARCIIep()
	// Channel is Class 2 but the tracker always reports one class
	// better (Class 3): every send is underpowered once.
	acct := energy.NewAccount(model)
	l := NewLink(WCDMA(), Fixed{Cls: Class2}, acct, rng.New(3))
	l.Tracker = NewPilotTracker(Fixed{Cls: Class2}, 1.0, rng.New(4))
	tAir, err := l.Send(100)
	if err != nil {
		t.Fatal(err)
	}
	if l.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want 1", l.Retransmits)
	}
	// Cost must exceed a clean Class 2 transmission.
	clean := float64(WCDMA().TxEnergy(100, Class2))
	if got := float64(acct.Component(energy.CompRadioTx)); got <= clean {
		t.Errorf("retransmitted energy %g should exceed clean %g", got, clean)
	}
	if float64(tAir) <= float64(WCDMA().AirTime(100, Class2)) {
		t.Error("retransmission should lengthen the air time")
	}

	// Underestimating (transmitting stronger than needed) needs no
	// retransmission.
	acct2 := energy.NewAccount(model)
	l2 := NewLink(WCDMA(), Fixed{Cls: Class3}, acct2, rng.New(5))
	l2.Tracker = NewPilotTracker(Fixed{Cls: Class1}, 0, nil) // reports worse
	if _, err := l2.Send(100); err != nil {
		t.Fatal(err)
	}
	if l2.Retransmits != 0 {
		t.Error("overpowered transmission should not retransmit")
	}
}
