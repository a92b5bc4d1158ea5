package protocol

import (
	"math/rand/v2"
	"testing"

	"repro/internal/blockplan"
	"repro/internal/obs"
)

// lossyTransfer drives one message through tr for users simulated user
// by user: user u needs block u%blocks, loses every packet independently
// with probability loss, and NACKs its block's missing shard count. It
// returns every multicast ref the engine scheduled.
func lossyTransfer(t *testing.T, tr *Transfer, users, blocks, k int, loss float64, rng *rand.Rand) []blockplan.Ref {
	t.Helper()
	counts := make([]int, users)
	done := make([]bool, users)
	var sent []blockplan.Ref
	for st := tr.Next(); st.Kind != StepDone; st = tr.Next() {
		switch st.Kind {
		case StepMulticast:
			sent = append(sent, st.Refs...)
			for u := 0; u < users; u++ {
				if done[u] {
					continue
				}
				for _, r := range st.Refs {
					if r.Block == u%blocks && rng.Float64() >= loss {
						counts[u]++
					}
				}
				if counts[u] >= k {
					done[u] = true
					continue
				}
				tr.NACK(u, []Request{{Block: u % blocks, Count: k - counts[u]}})
			}
		case StepUnicast:
			for _, u := range st.Users {
				if rng.Float64() >= loss {
					done[u] = true
				} else {
					tr.NACK(u, nil)
				}
			}
		}
	}
	return sent
}

// TestNoShardMulticastTwice: within one message every multicast
// (block, shard) is fresh. Reactive parity continues after the
// proactive parity round one already sent, in both send orders.
func TestNoShardMulticastTwice(t *testing.T) {
	const users, blocks, k = 64, 4, 10
	for _, seq := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.AdaptiveRho = false
		cfg.InitialRho = 1.5
		cfg.MaxMulticastRounds = 0
		cfg.SequentialSend = seq
		e, err := NewEngine(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		part, err := blockplan.NewPartition(blocks*k, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, 0))
		reactive := 0
		for msg := 0; msg < 20; msg++ {
			tr := e.Begin(part, msg, maxUnicastWaves, nil)
			sent := lossyTransfer(t, tr, users, blocks, k, 0.3, rng)
			seen := make(map[blockplan.Ref]bool)
			for _, r := range sent {
				if seen[r] {
					t.Fatalf("sequential=%v message %d: %+v multicast twice", seq, msg, r)
				}
				seen[r] = true
			}
			reactive += tr.Metrics().MulticastRounds - 1
		}
		if reactive == 0 {
			t.Fatalf("sequential=%v: no reactive parity round ran; loss too mild", seq)
		}
	}
}

// TestRhoAdjustedEventCarriesMsgID: each RhoAdjusted event names the
// message whose first-round NACKs caused it.
func TestRhoAdjustedEventCarriesMsgID(t *testing.T) {
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Obs = reg
	cfg.NumNACK = 5
	gen, s := session(t, cfg, 1024, paperStar(), 12)
	type change struct {
		msgID uint8
		rho   float64
	}
	var want []change
	for i := 0; i < 12; i++ {
		met := run(t, gen, s, 1024)
		if s.Rho() != met.RhoUsed {
			want = append(want, change{uint8(met.MsgID & 0x3f), s.Rho()})
		}
	}
	var got []change
	for _, ev := range reg.Events() {
		if ev.Kind == obs.EvRhoAdjusted {
			got = append(got, change{ev.MsgID, ev.Value})
		}
	}
	if len(want) == 0 {
		t.Fatal("rho never changed; nothing to check")
	}
	if len(got) != len(want) {
		t.Fatalf("%d RhoAdjusted events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMaxMulticastRounds pins the round budget's one meaning on every
// transport: 0 multicasts until every user recovers (bounded by the
// 64-round cap), n > 0 switches to unicast after n rounds, and unicast
// waves send 2, 3, ... copies to the users still NACKing.
func TestMaxMulticastRounds(t *testing.T) {
	const k = 10
	part, err := blockplan.NewPartition(2*k, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		maxRounds int
		nackUntil int // user 7 NACKs through this multicast round
		rounds    int // multicast rounds run
		dups      []int
	}{
		{"0 until done", 0, 2, 3, nil},
		{"0 capped", 0, 1000, maxRounds, []int{2, 3}},
		{"1", 1, 2, 1, []int{2, 3}},
		{"2", 2, 2, 2, []int{2, 3}},
		{"2 done first", 2, 0, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.AdaptiveRho = false
			cfg.MaxMulticastRounds = tc.maxRounds
			e, err := NewEngine(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			tr := e.Begin(part, 0, 5, nil)
			var dups []int
			for st := tr.Next(); st.Kind != StepDone; st = tr.Next() {
				switch {
				case st.Kind == StepMulticast && st.Round <= tc.nackUntil:
					tr.NACK(7, []Request{{Block: 1, Count: 1}})
				case st.Kind == StepUnicast:
					if len(st.Users) != 1 || st.Users[0] != 7 {
						t.Fatalf("wave %d unicasts to %v, want [7]", st.Round, st.Users)
					}
					dups = append(dups, st.Dups)
					if st.Round == 1 {
						tr.NACK(7, nil) // the first wave is lost
					}
				}
			}
			met := tr.Metrics()
			if met.MulticastRounds != tc.rounds {
				t.Errorf("ran %d multicast rounds, want %d", met.MulticastRounds, tc.rounds)
			}
			if len(dups) != len(tc.dups) || (len(dups) > 0 && (dups[0] != tc.dups[0] || dups[1] != tc.dups[1])) {
				t.Errorf("unicast duplicates per wave %v, want %v", dups, tc.dups)
			}
			if !met.AllDone {
				t.Error("transfer not done")
			}
			if want := 2*2 + 1; len(tc.dups) > 0 && met.UsrSent != want {
				t.Errorf("UsrSent = %d, want %d", met.UsrSent, want)
			}
		})
	}
}

// TestParityCursorStaysInCodeSpace: a user that never recovers cannot
// push a block's parity cursor past the FEC code's parity space; the
// engine switches to unicast once the requested blocks are exhausted.
func TestParityCursorStaysInCodeSpace(t *testing.T) {
	const k = 100
	cfg := DefaultConfig()
	cfg.K = k
	cfg.AdaptiveRho = false
	cfg.MaxMulticastRounds = 0
	e, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := blockplan.NewPartition(k, k)
	if err != nil {
		t.Fatal(err)
	}
	tr := e.Begin(part, 0, 1, nil)
	highest := 0
	for st := tr.Next(); st.Kind == StepMulticast; st = tr.Next() {
		for _, r := range st.Refs {
			highest = max(highest, r.Shard)
		}
		tr.NACK(1, []Request{{Block: 0, Count: k}})
	}
	if highest != 255 {
		t.Fatalf("highest shard sent %d, want 255", highest)
	}
	if got := tr.Metrics().MulticastRounds; got != 3 {
		t.Fatalf("%d multicast rounds, want 3 (data + 156 parity)", got)
	}
}
