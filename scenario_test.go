package repro

import (
	"math"
	"testing"
	"time"

	"repro/internal/phy"
)

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, spec := range []string{"BEB", "LB", "LLB", "STB", "FIXED:1", "FIXED:64", "POLY:2", "POLY:2.5"} {
		a, err := ParseAlgorithm(spec)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", spec, err)
		}
		if a.String() != spec {
			t.Errorf("ParseAlgorithm(%q).String() = %q", spec, a.String())
		}
		b, err := ParseAlgorithm(a.String())
		if err != nil || b != a {
			t.Errorf("round trip of %q: got %v (err %v)", spec, b, err)
		}
		if a == (Algorithm{}) {
			t.Errorf("valid algorithm %q is the zero Algorithm", spec)
		}
	}
}

func TestParseAlgorithmErrors(t *testing.T) {
	for _, spec := range []string{"", "WAT", "beb", "FIXED:0", "FIXED:-3", "FIXED:x", "POLY:0.5", "best-of-3"} {
		if _, err := ParseAlgorithm(spec); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", spec)
		}
	}
}

func TestAlgorithmConstructors(t *testing.T) {
	if got := Polynomial(2).String(); got != "POLY:2" {
		t.Errorf("Polynomial(2) = %q", got)
	}
	if got := Polynomial(0.2).String(); got != "POLY:1" {
		t.Errorf("Polynomial(0.2) = %q (want clamp to 1)", got)
	}
	if MustAlgorithm("BEB") != MustAlgorithm("BEB") {
		t.Error("equal algorithms compare unequal")
	}
	list := PaperAlgorithmList()
	if len(list) != 4 || list[0].String() != "BEB" || list[3].String() != "STB" {
		t.Errorf("PaperAlgorithmList() = %v", list)
	}
}

func TestMustAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAlgorithm(\"WAT\") did not panic")
		}
	}()
	MustAlgorithm("WAT")
}

// TestValidateRejectsDeafRadio: finite radio settings under which a lone
// frame never gets through used to pass Validate, and the run then spun for
// seconds until its event budget panicked. Validate must reject each one
// at once.
func TestValidateRejectsDeafRadio(t *testing.T) {
	for name, tweak := range map[string]func(*MACConfig){
		"CSThreshold 0 dBm":  func(c *MACConfig) { c.Radio.CSThreshold = 0 },
		"NoiseFloor -20 dBm": func(c *MACConfig) { c.Radio.NoiseFloor = -20 },
		"TxPower -100 dBm":   func(c *MACConfig) { c.Radio.TxPower = -100 },
		"one station out of range": func(c *MACConfig) {
			c.Layout = func(n int) []phy.Position {
				ps := phy.StationGrid(n)
				ps[n-1] = phy.Position{X: 500, Y: 500}
				return ps
			}
		},
	} {
		s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 2, Options: []Option{WithConfig(tweak)}}
		start := time.Now()
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a radio under which no frame gets through", name)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s: Validate took %v", name, d)
		}
	}
	// Past 1840 stations the paper's grid reaches rows from which a lone
	// frame does not decode at 54 Mbit/s; Validate says so without
	// building the layout.
	for _, n := range []int{1841, 1 << 40} {
		if err := (Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: n}).Validate(); err == nil {
			t.Errorf("Validate accepted a wifi grid of %d stations", n)
		}
	}
	if err := (Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 1840}).Validate(); err != nil {
		t.Errorf("wifi grid of 1840 stations: %v", err)
	}
	// The paper's grid and the near-far ablation layout stay valid, RTS/CTS
	// included.
	for _, s := range []Scenario{
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 150},
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 150, Options: []Option{WithRTSCTS()}},
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 12,
			Options: []Option{WithConfig(func(c *MACConfig) { c.Layout = phy.NearFarLayout })}},
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	cases := []struct {
		name string
		s    Scenario
	}{
		{"nil model", Scenario{Algorithm: MustAlgorithm("BEB"), N: 10}},
		{"n=0", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 0}},
		{"zero algorithm", Scenario{Model: WiFi(), N: 10}},
		{"best-of-k k=0", Scenario{Model: WiFi(), N: 10, Workload: BestOfKWorkload{}}},
		{"continuous zero horizon", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Arrivals: Saturated()}}},
		{"continuous empty arrivals", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Horizon: time.Millisecond}}},
		{"continuous bad rate", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Workload: ContinuousWorkload{Arrivals: Poisson(-1), Horizon: time.Millisecond}}},
		{"abstract FIXED:1 n=2", Scenario{Model: Abstract(), Algorithm: MustAlgorithm("FIXED:1"), N: 2}},
		{"unaligned FIXED:1 n=3", Scenario{Model: AbstractUnaligned(), Algorithm: MustAlgorithm("FIXED:1"), N: 3}},
		{"wifi FIXED:1 n=2", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("FIXED:1"), N: 2}},
		{"abstract FIXED:01 n=2", Scenario{Model: Abstract(), Algorithm: MustAlgorithm("FIXED:01"), N: 2}},
		{"wifi payload -1", valid.WithOptions(WithPayload(-1))},
		{"wifi payload 2305", valid.WithOptions(WithPayload(2305))},
		{"wifi payload 2^55", valid.WithOptions(WithPayload(1 << 55))},
		{"wifi payload 2305 by config", valid.WithOptions(WithConfig(func(c *MACConfig) { c.PayloadBytes = 2305 }))},
		{"wifi AckTimeout -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.AckTimeout = -time.Microsecond }))},
		{"wifi SIFS -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.SIFS = -time.Microsecond }))},
		{"wifi DIFS -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.DIFS = -time.Microsecond }))},
		{"wifi EIFS -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.EIFS = -time.Microsecond }))},
		{"wifi SlotTime -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.SlotTime = -time.Microsecond }))},
		{"wifi AbortOverlapAfter -1µs", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.AbortOverlapAfter = -time.Microsecond }))},
		{"wifi OverheadBytes -1000", valid.WithOptions(WithConfig(func(c *MACConfig) { c.OverheadBytes = -1000 }))},
		{"wifi AckBytes -1000", valid.WithOptions(WithConfig(func(c *MACConfig) { c.AckBytes = -1000 }))},
		{"wifi RTSBytes -1000", valid.WithOptions(WithRTSCTS(), WithConfig(func(c *MACConfig) { c.RTSBytes = -1000 }))},
		{"wifi CTSBytes -1000", valid.WithOptions(WithRTSCTS(), WithConfig(func(c *MACConfig) { c.CTSBytes = -1000 }))},
		{"wifi CWMax 0", valid.WithOptions(WithConfig(func(c *MACConfig) { c.CWMax = 0 }))},
		{"wifi CWMax -1", valid.WithOptions(WithConfig(func(c *MACConfig) { c.CWMax = -1 }))},
		{"wifi CWMax 1 n=2", Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 2,
			Options: []Option{WithConfig(func(c *MACConfig) { c.CWMin = 16; c.CWMax = 1 })}}},
		{"wifi FrameLossProb -0.1", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.FrameLossProb = -0.1 }))},
		{"wifi FrameLossProb 1", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.FrameLossProb = 1 }))},
		{"wifi FrameLossProb 2", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.FrameLossProb = 2 }))},
		{"wifi FrameLossProb NaN", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.FrameLossProb = math.NaN() }))},
		{"wifi TxPower NaN", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.TxPower = phy.DBm(math.NaN()) }))},
		{"wifi TxPower +Inf", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.TxPower = phy.DBm(math.Inf(1)) }))},
		{"wifi TxPower -Inf", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.TxPower = phy.DBm(math.Inf(-1)) }))},
		{"wifi TxPower 4000 dBm (mW overflows)", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.TxPower = 4000 }))},
		{"wifi NoiseFloor NaN", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.NoiseFloor = phy.DBm(math.NaN()) }))},
		{"wifi NoiseFloor -Inf", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.NoiseFloor = phy.DBm(math.Inf(-1)) }))},
		{"wifi CSThreshold +Inf", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.CSThreshold = phy.DBm(math.Inf(1)) }))},
		{"wifi CSThreshold NaN", valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.CSThreshold = phy.DBm(math.NaN()) }))},
		{"wifi PathLoss exponent NaN", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Radio.PathLoss = phy.LogDistance{Exponent: math.NaN(), ReferenceDist: 1, ReferenceLoss: 46.6777}
		}))},
		{"wifi PathLoss ReferenceLoss +Inf", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Radio.PathLoss = phy.LogDistance{Exponent: 3, ReferenceDist: 1, ReferenceLoss: phy.DB(math.Inf(1))}
		}))},
		{"wifi PathLoss ReferenceDist +Inf", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Radio.PathLoss = phy.LogDistance{Exponent: 3, ReferenceDist: math.Inf(1), ReferenceLoss: 46.6777}
		}))},
		{"wifi PathLoss ReferenceDist 0", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Radio.PathLoss = phy.LogDistance{Exponent: 3, ReferenceDist: 0, ReferenceLoss: 46.6777}
		}))},
		{"wifi PathLoss ReferenceDist -1", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Radio.PathLoss = phy.LogDistance{Exponent: 3, ReferenceDist: -1, ReferenceLoss: 46.6777}
		}))},
		{"wifi Layout NaN", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Layout = func(n int) []phy.Position {
				ps := phy.StationGrid(n)
				ps[n-1].Y = math.NaN()
				return ps
			}
		}))},
		{"wifi Layout +Inf", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Layout = func(n int) []phy.Position {
				ps := phy.StationGrid(n)
				ps[0].X = math.Inf(1)
				return ps
			}
		}))},
		{"wifi Layout n-1 positions", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Layout = func(n int) []phy.Position { return phy.StationGrid(n - 1) }
		}))},
		{"wifi Layout n+1 positions", valid.WithOptions(WithConfig(func(c *MACConfig) {
			c.Layout = func(n int) []phy.Position { return phy.StationGrid(n + 1) }
		}))},
		{"wifi DataRate out of range", valid.WithOptions(WithConfig(func(c *MACConfig) { c.DataRate = 99 }))},
		{"wifi ControlRate -1", valid.WithOptions(WithConfig(func(c *MACConfig) { c.ControlRate = -1 }))},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.s)
		}
	}

	// Workloads that prescribe their own algorithm don't need one. A window
	// of 1 is fine for one station, under ongoing traffic (the horizon ends
	// it), and on wifi when CWMin clamps the window up.
	cwMin16 := WithConfig(func(c *MACConfig) { c.CWMin = 16 })
	for _, s := range []Scenario{
		{Model: WiFi(), N: 10, Workload: BestOfKWorkload{K: 3}},
		{Model: Abstract(), N: 10, Workload: TreeWorkload{}},
		{Model: Abstract(), Algorithm: MustAlgorithm("FIXED:1"), N: 1},
		{Model: WiFi(), Algorithm: MustAlgorithm("FIXED:1"), N: 2, Options: []Option{cwMin16}},
		{Model: WiFi(), Algorithm: MustAlgorithm("FIXED:1"), N: 2,
			Workload: ContinuousWorkload{Arrivals: Saturated(), Horizon: time.Millisecond}},
		valid.WithOptions(WithPayload(2304)),
		valid.WithOptions(WithPayload(0)),
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 10, Options: []Option{WithPayload(1 << 55)}},
		{Model: Abstract(), Algorithm: MustAlgorithm("BEB"), N: 10,
			Options: []Option{WithConfig(func(c *MACConfig) { c.AckTimeout = -time.Microsecond; c.CWMax = 0 })}},
		{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 1, Options: []Option{WithConfig(func(c *MACConfig) { c.CWMax = 1 })}},
		valid.WithOptions(WithConfig(func(c *MACConfig) { c.SIFS = 0; c.OverheadBytes = 0; c.CWMax = 2 })),
		valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.FrameLossProb = 0.5 })),
		valid.WithOptions(WithConfig(func(c *MACConfig) { c.Radio.PathLoss = nil; c.Layout = phy.NearFarLayout })),
	} {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: Validate rejected: %v", s, err)
		}
	}
}

func TestScenarioString(t *testing.T) {
	s := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("LLB"), N: 150}
	if got := s.String(); got != "wifi/LLB/n=150/single-batch" {
		t.Errorf("String() = %q", got)
	}
	tree := Scenario{Model: Abstract(), N: 30, Workload: TreeWorkload{}}
	if got := tree.String(); got != "abstract/-/n=30/tree" {
		t.Errorf("String() = %q", got)
	}
}

func TestScenarioWithOptionsDoesNotMutate(t *testing.T) {
	base := Scenario{Model: WiFi(), Algorithm: MustAlgorithm("BEB"), N: 10,
		Options: []Option{WithPayload(1024)}}
	reseeded := base.WithOptions(WithSeed(7))
	if len(base.Options) != 1 {
		t.Fatalf("WithOptions mutated the receiver: %d options", len(base.Options))
	}
	if len(reseeded.Options) != 2 {
		t.Fatalf("WithOptions lost options: %d", len(reseeded.Options))
	}
	// Appending to the copy must not leak into a sibling copy's backing array.
	a := base.WithOptions(WithSeed(1))
	b := base.WithOptions(WithSeed(2))
	ra, _ := new(Engine).Run(t.Context(), a)
	rb, _ := new(Engine).Run(t.Context(), b)
	if ra.Batch.TotalTime == rb.Batch.TotalTime && ra.Batch.CWSlots == rb.Batch.CWSlots {
		t.Error("sibling WithOptions copies shared a seed")
	}
}

// FuzzParseAlgorithm exercises the parser on arbitrary input: it must never
// panic, and every spec it accepts must round-trip through String —
// a.String() is the algorithm's identity (it names the RNG stream and feeds
// Scenario.Fingerprint), so an accepted-but-unstable spec would corrupt
// both determinism and content addressing.
func FuzzParseAlgorithm(f *testing.F) {
	for _, spec := range []string{
		"BEB", "LB", "LLB", "STB",
		"FIXED:1", "FIXED:64", "FIXED:0", "FIXED:-3", "FIXED:9999999999999999999999",
		"POLY:2", "POLY:2.5", "POLY:0.5", "POLY:NaN", "POLY:Inf", "POLY:1e309",
		"", "WAT", "beb", "best-of-3", "FIXED:", "POLY:", "FIXED:1:2", ":::", "FIXED:+64", "POLY:+2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAlgorithm(spec)
		if err != nil {
			if a != (Algorithm{}) {
				t.Fatalf("ParseAlgorithm(%q) errored but returned non-zero %v", spec, a)
			}
			return
		}
		if a.String() != spec {
			t.Fatalf("ParseAlgorithm(%q).String() = %q", spec, a.String())
		}
		b, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("accepted spec %q does not re-parse: %v", spec, err)
		}
		if b != a {
			t.Fatalf("round trip of %q: %v != %v", spec, b, a)
		}
	})
}
