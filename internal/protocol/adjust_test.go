package protocol

import (
	"math"
	"testing"
)

func newBareEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdjustRhoIncrease checks the Fig. 11 worked example: 10 NACKs with
// requests a0>=...>=a9, target numNACK=2, k=10, rho=1: the server adds
// a2 parity packets per block, so rho becomes (a2+10)/10.
func TestAdjustRhoIncrease(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNACK = 2
	s := newBareEngine(t, cfg)
	s.rho = 1.0
	a := []int{9, 7, 5, 4, 3, 3, 2, 2, 1, 1}
	s.adjustRho(append([]int(nil), a...), 0)
	want := (5.0 + 10.0) / 10.0
	if math.Abs(s.rho-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", s.rho, want)
	}
}

func TestAdjustRhoIncreaseUnsortedInput(t *testing.T) {
	// The algorithm sorts descending itself.
	cfg := DefaultConfig()
	cfg.NumNACK = 1
	s := newBareEngine(t, cfg)
	s.rho = 1.0
	s.adjustRho([]int{1, 9, 4}, 0)
	want := (4.0 + 10.0) / 10.0
	if math.Abs(s.rho-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", s.rho, want)
	}
}

func TestAdjustRhoNoChangeAtTarget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumNACK = 3
	s := newBareEngine(t, cfg)
	s.rho = 1.4
	s.adjustRho([]int{2, 2, 1}, 0)
	if s.rho != 1.4 {
		t.Fatalf("rho changed to %v with exactly-target NACKs", s.rho)
	}
}

func TestAdjustRhoDecreaseProbability(t *testing.T) {
	// With zero NACKs the decrease probability is 1: rho must drop by
	// exactly one packet's worth.
	cfg := DefaultConfig()
	cfg.NumNACK = 20
	s := newBareEngine(t, cfg)
	s.rho = 2.0
	s.adjustRho(nil, 0)
	want := math.Ceil(10*2.0-1) / 10 // 1.9
	if math.Abs(s.rho-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", s.rho, want)
	}
	// With size(A)*2 >= target the probability is 0: never decreases.
	s.rho = 2.0
	for i := 0; i < 50; i++ {
		s.adjustRho([]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0) // 10 NACKs, 2*10 >= 20
		if s.rho != 2.0 {
			t.Fatalf("rho decreased to %v with zero decrease probability", s.rho)
		}
	}
}

func TestAdjustRhoZeroTarget(t *testing.T) {
	// numNACK = 0: any NACK raises rho by the largest request.
	cfg := DefaultConfig()
	cfg.NumNACK = 0
	s := newBareEngine(t, cfg)
	s.rho = 1.0
	s.adjustRho([]int{3, 1}, 0)
	want := (3.0 + 10.0) / 10.0
	if math.Abs(s.rho-want) > 1e-12 {
		t.Fatalf("rho = %v, want %v", s.rho, want)
	}
}

func TestUserStateRecovered(t *testing.T) {
	u := userState{pkt: 3, block: 1, counts: []uint16{0, 4, 0}}
	if u.recovered(10) {
		t.Fatal("recovered with 4 of 10 shards")
	}
	u.counts[1] = 10
	if !u.recovered(10) {
		t.Fatal("not recovered with k shards")
	}
	u.counts[1] = 0
	u.gotSpecific = true
	if !u.recovered(10) {
		t.Fatal("not recovered despite specific packet")
	}
}

func TestMetricsDerivations(t *testing.T) {
	m := &Metrics{EncPackets: 100, MulticastSent: 150,
		UserRoundHist: map[int]int{1: 90, 2: 10}}
	if got := m.BandwidthOverhead(); got != 1.5 {
		t.Fatalf("overhead %v", got)
	}
	if got := m.AvgUserRounds(); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("avg rounds %v", got)
	}
	empty := &Metrics{UserRoundHist: map[int]int{}}
	if empty.BandwidthOverhead() != 0 || empty.AvgUserRounds() != 0 {
		t.Fatal("empty metrics not zero")
	}
}
