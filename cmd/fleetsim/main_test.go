package main

import (
	"math"
	"strings"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/fleet"
)

func TestParseConfigValidCombos(t *testing.T) {
	cases := []struct {
		name                     string
		clients, servers, places string
		workers, queue           int
		sweep                    bool
		wantServers              []int
		wantPlaces               []fleet.Placement
	}{
		{"defaults", "32", "1", "cheapest", 4, 16, false, []int{1}, []fleet.Placement{fleet.PlaceCheapest}},
		{"multi server single run", "16", "4", "p2c", 8, 4, false, []int{4}, []fleet.Placement{fleet.PlaceP2C}},
		{"no waiting", "8", "2", "hash", 2, -1, false, []int{2}, []fleet.Placement{fleet.PlaceHash}},
		{"sweep lists", "8,16", "1,2,4", "cheapest,p2c", 4, 16, true,
			[]int{1, 2, 4}, []fleet.Placement{fleet.PlaceCheapest, fleet.PlaceP2C}},
		{"sweep all placements", "8", "2", "all", 4, 16, true,
			[]int{2}, []fleet.Placement{fleet.PlaceCheapest, fleet.PlaceHash, fleet.PlaceP2C}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseConfig(tc.clients, tc.servers, tc.places, tc.workers, tc.queue, tc.sweep)
			if err != nil {
				t.Fatalf("parseConfig: %v", err)
			}
			if len(cfg.serverNs) != len(tc.wantServers) {
				t.Fatalf("server counts %v, want %v", cfg.serverNs, tc.wantServers)
			}
			for i, n := range tc.wantServers {
				if cfg.serverNs[i] != n {
					t.Errorf("serverNs[%d] = %d, want %d", i, cfg.serverNs[i], n)
				}
			}
			if len(cfg.placements) != len(tc.wantPlaces) {
				t.Fatalf("placements %v, want %v", cfg.placements, tc.wantPlaces)
			}
			for i, p := range tc.wantPlaces {
				if cfg.placements[i] != p {
					t.Errorf("placements[%d] = %v, want %v", i, cfg.placements[i], p)
				}
			}
		})
	}
}

func TestParseConfigRejectsNonsense(t *testing.T) {
	cases := []struct {
		name                     string
		clients, servers, places string
		workers, queue           int
		sweep                    bool
		wantErr                  string
	}{
		{"zero servers", "8", "0", "cheapest", 4, 16, false, "-servers"},
		{"negative servers", "8", "-2", "cheapest", 4, 16, false, "-servers"},
		{"zero clients", "0", "1", "cheapest", 4, 16, false, "-clients"},
		{"garbage servers", "8", "two", "cheapest", 4, 16, false, "-servers"},
		{"zero workers", "8", "1", "cheapest", 0, 16, false, "at least one worker"},
		{"negative workers", "8", "1", "cheapest", -3, 16, false, "at least one worker"},
		{"ambiguous queue zero", "8", "1", "cheapest", 4, 0, false, "-queue 0 is ambiguous"},
		{"deep negative queue", "8", "1", "cheapest", 4, -5, false, "meaningless"},
		{"workers do not split", "8", "3", "cheapest", 4, 16, false, "split evenly"},
		{"sweep split check covers every count", "8", "2,3", "cheapest", 4, 16, true, "split evenly"},
		{"client list without sweep", "8,16", "1", "cheapest", 4, 16, false, "add -sweep"},
		{"server list without sweep", "8", "1,2", "cheapest", 4, 16, false, "add -sweep"},
		{"placement list without sweep", "8", "1", "cheapest,p2c", 4, 16, false, "add -sweep"},
		{"unknown placement", "8", "1", "round-robin", 4, 16, false, "unknown placement"},
		{"empty placement", "8", "1", ",", 4, 16, false, "no placements"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseConfig(tc.clients, tc.servers, tc.places, tc.workers, tc.queue, tc.sweep)
			if err == nil {
				t.Fatal("parseConfig accepted a nonsensical combination")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestServerConfigSplitsAggregateBudget(t *testing.T) {
	cfg, err := parseConfig("8", "1,2,4", "all", 8, 4, true)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	for _, n := range cfg.serverNs {
		sc := cfg.serverConfig(n)
		if sc.Workers*n != 8 {
			t.Errorf("%d servers x %d workers != aggregate 8", n, sc.Workers)
		}
		if sc.QueueCap != 4 {
			t.Errorf("queue capacity %d is not per backend", sc.QueueCap)
		}
	}
}

func TestParsePlacementSuggestsOnTypo(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"chepest", `did you mean "cheapest"`},
		{"hsah", `did you mean "hash"`},
		{"p2", `did you mean "p2c"`},
		{"round-robin", "valid: cheapest, hash, p2c"},
	}
	for _, tc := range cases {
		_, err := fleet.ParsePlacement(tc.in)
		if err == nil {
			t.Fatalf("ParsePlacement(%q) accepted a bad value", tc.in)
		}
		if !strings.Contains(err.Error(), "unknown placement") {
			t.Errorf("ParsePlacement(%q) error %q does not say unknown placement", tc.in, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlacement(%q) error %q does not contain %q", tc.in, err, tc.want)
		}
	}
}

func TestParseChaosValid(t *testing.T) {
	chaos, err := parseChaos("s1@0.002", "s0@0.001/0.002/0.004", "s0@0.0005+0.01x8", "s1:0.35/4", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chaos) != 2 {
		t.Fatalf("chaos specs for %d backends, want 2", len(chaos))
	}
	if chaos[0].FlapAt != 0.001 || chaos[0].FlapDown != 0.002 || chaos[0].FlapEvery != 0.004 {
		t.Errorf("s0 flap = %+v", chaos[0])
	}
	if chaos[0].BrownoutAt != 0.0005 || chaos[0].BrownoutFor != 0.01 || chaos[0].BrownoutFactor != 8 {
		t.Errorf("s0 brownout = %+v", chaos[0])
	}
	if chaos[1].FailAt != 0.002 {
		t.Errorf("s1 fail = %+v", chaos[1])
	}
	if chaos[1].LossRate != 0.35 || chaos[1].LossBurst != 4 {
		t.Errorf("s1 loss = %+v", chaos[1])
	}
	if c, err := parseChaos("", "", "", "", 4); err != nil || c != nil {
		t.Errorf("empty chaos flags = (%v, %v), want (nil, nil)", c, err)
	}
}

// chaosNonsense are chaos flag values parseChaos must reject, with a
// fragment of the error each must give.
var chaosNonsense = []struct {
	name                       string
	fail, flap, brownout, loss string
	wantErr                    string
}{
	{"unknown backend", "s7@0.002", "", "", "", "unknown backend"},
	{"fail missing time", "s0", "", "", "", "want name@time"},
	{"fail negative time", "s0@-1", "", "", "", "positive duration"},
	{"flap too many fields", "", "s0@0.1/0.2/0.3/0.4", "", "", "at most"},
	{"brownout missing factor", "", "", "s0@0.0005", "", "xfactor"},
	{"brownout factor too small", "", "", "s0@0.0005x1", "", "must be > 1"},
	{"loss missing rate", "", "", "", "s0", "want name:rate"},
	{"loss rate out of range", "", "", "", "s0:1.5", "must be in (0, 1)"},
	{"loss burst too small", "", "", "", "s0:0.3/0.5", "must be >= 1"},
	{"fail NaN time", "s0@NaN", "", "", "", "finite, positive duration"},
	{"fail infinite time", "s0@Inf", "", "", "", "finite, positive duration"},
	{"flap NaN down time", "", "s0@0.001/NaN/0.004", "", "", "finite, positive duration"},
	{"flap infinite period", "", "s0@0.001/0.002/Inf", "", "", "finite, positive duration"},
	{"brownout NaN start", "", "", "s0@NaNx8", "", "finite, positive duration"},
	{"brownout NaN factor", "", "", "s0@0.001xNaN", "", "must be > 1 and finite"},
	{"brownout infinite factor", "", "", "s0@0.001xInf", "", "must be > 1 and finite"},
	{"loss NaN rate", "", "", "", "s0:NaN", "must be in (0, 1)"},
	{"loss NaN burst", "", "", "", "s0:0.3/NaN", "must be >= 1 and finite"},
	{"loss infinite burst", "", "", "", "s0:0.3/Inf", "must be >= 1 and finite"},
}

func TestParseChaosRejectsNonsense(t *testing.T) {
	for _, tc := range chaosNonsense {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseChaos(tc.fail, tc.flap, tc.brownout, tc.loss, 2)
			if err == nil {
				t.Fatal("parseChaos accepted nonsense")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// FuzzParseChaos: the chaos flag parser never panics, and every spec
// it accepts has finite times that are zero (unset) or positive, a
// brown-out factor above 1, a loss rate in (0, 1) and a burst of at
// least 1.
func FuzzParseChaos(f *testing.F) {
	f.Add("s1@0.002", "s0@0.001/0.002/0.004", "s0@0.0005+0.01x8", "s1:0.35/4", 2)
	for _, tc := range chaosNonsense {
		f.Add(tc.fail, tc.flap, tc.brownout, tc.loss, 2)
	}
	f.Fuzz(func(t *testing.T, fail, flap, brownout, loss string, servers int) {
		servers = 1 + int(uint(servers)%4)
		chaos, err := parseChaos(fail, flap, brownout, loss, servers)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		for i, c := range chaos {
			for _, v := range []energy.Seconds{c.FailAt, c.FlapAt, c.FlapDown, c.FlapEvery, c.BrownoutAt, c.BrownoutFor} {
				if !(v >= 0) || !finite(float64(v)) {
					t.Fatalf("s%d: accepted time %g in %+v", i, float64(v), c)
				}
			}
			if c.BrownoutFactor != 0 && !(c.BrownoutFactor > 1 && finite(c.BrownoutFactor)) {
				t.Fatalf("s%d: accepted brown-out factor %g", i, c.BrownoutFactor)
			}
			if c.LossRate != 0 && !(c.LossRate > 0 && c.LossRate < 1) {
				t.Fatalf("s%d: accepted loss rate %g", i, c.LossRate)
			}
			if c.LossBurst != 0 && !(c.LossBurst >= 1 && finite(c.LossBurst)) {
				t.Fatalf("s%d: accepted loss burst %g", i, c.LossBurst)
			}
		}
	})
}

func TestTelemetryFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		tf      telemetryFlags
		sweep   bool
		chaos   bool
		wantErr string
	}{
		{"off ignores everything", telemetryFlags{}, true, true, ""},
		{"timeseries alone", telemetryFlags{path: "ts.jsonl", tick: 0.0005}, false, false, ""},
		{"serve alone", telemetryFlags{serve: ":0", tick: 0.0005}, false, false, ""},
		{"timeseries with sweep", telemetryFlags{path: "ts.jsonl", tick: 0.0005}, true, false, "single run"},
		{"serve with chaos sweep", telemetryFlags{serve: ":0", tick: 0.0005}, false, true, "single run"},
		{"zero tick", telemetryFlags{path: "ts.jsonl"}, false, false, "must be positive"},
		{"negative tick", telemetryFlags{path: "ts.jsonl", tick: -1}, false, false, "must be positive"},
		{"NaN tick", telemetryFlags{path: "ts.jsonl", tick: math.NaN()}, false, false, "must be positive"},
		{"infinite tick", telemetryFlags{serve: ":0", tick: math.Inf(1)}, false, false, "must be positive and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tf.validate(tc.sweep, tc.chaos)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}
