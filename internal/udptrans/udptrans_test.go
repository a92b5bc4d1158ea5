package udptrans

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/blockplan"
	"repro/internal/obs"
	"repro/internal/packet"
)

// group spins up a key server, UDP transport server, and n clients on
// loopback, bootstrapped through the first rekey message.
func group(t *testing.T, n int, drop func(i int) func([]byte) bool, opts ...rekey.Option) (*rekey.Server, *Server, map[rekey.MemberID]*Client) {
	t.Helper()
	ks, err := rekey.NewServer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	for i := 0; i < n; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[rekey.MemberID]*Client, n)
	for i := 0; i < n; i++ {
		cred, ok := ks.Credentials(rekey.MemberID(i))
		if !ok {
			t.Fatalf("no credentials for %d", i)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if drop != nil {
			c.Drop = drop(i)
		}
		clients[rekey.MemberID(i)] = c
		srv.SetMemberAddr(rekey.MemberID(i), c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
	}
	if _, err := srv.Distribute(context.Background(), rm, DefaultOptions()); err != nil {
		t.Fatalf("bootstrap distribute: %v", err)
	}
	waitKeyed(t, ks, clients, 3*time.Second)
	return ks, srv, clients
}

func waitKeyed(t *testing.T, ks *rekey.Server, clients map[rekey.MemberID]*Client, timeout time.Duration) {
	t.Helper()
	want := ks.GroupKey()
	deadline := time.Now().Add(timeout)
	for {
		all := true
		for _, c := range clients {
			gk, ok := c.Member.GroupKey()
			if !ok || gk != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for id, c := range clients {
				gk, ok := c.Member.GroupKey()
				if !ok || gk != want {
					t.Errorf("member %d not keyed (ok=%v)", id, ok)
				}
			}
			t.Fatal("timeout waiting for members to key")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestLoopbackLossless(t *testing.T) {
	ks, srv, clients := group(t, 20, nil, rekey.WithKeySeed(1))
	// Churn: 3 leave, 2 join.
	for _, id := range []rekey.MemberID{2, 5, 11} {
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	for _, id := range []rekey.MemberID{100, 101} {
		if err := ks.QueueJoin(id); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []rekey.MemberID{100, 101} {
		cred, ok := ks.Credentials(id)
		if !ok {
			t.Fatalf("no credentials for %d", id)
		}
		c, err := NewClient(cred, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		srv.SetMemberAddr(id, c.Addr())
		go c.Run(context.Background()) //nolint:errcheck
		t.Cleanup(func() { c.Close() })
	}
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.EncSent == 0 {
		t.Fatal("no ENC packets sent")
	}
	waitKeyed(t, ks, clients, 3*time.Second)
}

func TestLoopbackWithLoss(t *testing.T) {
	// A quarter of the members drop 30% of multicast packets: recovery
	// must proceed through NACK-driven parity and, if needed, unicast.
	drop := func(i int) func([]byte) bool {
		if i%4 != 0 {
			return nil
		}
		rng := rand.New(rand.NewPCG(uint64(i), 77))
		return func(pkt []byte) bool {
			typ, err := packet.Detect(pkt)
			if err != nil {
				return false
			}
			// Never drop USR: the escalating-duplicate unicast stage
			// bounds retries; dropping all duplicates forever would
			// just slow the test.
			if typ == packet.TypeUSR {
				return false
			}
			return rng.Float64() < 0.3
		}
	}
	// rho = 1: no proactive parity, so recovery is forced through the
	// NACK-driven reactive path.
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0
	ks, srv, clients := group(t, 24, drop, rekey.WithTuning(tun), rekey.WithKeySeed(2))

	for i := 0; i < 6; i++ {
		id := rekey.MemberID(i*4 + 1)
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 5*time.Second)
	if len(st.NACKsPerRound) == 0 {
		t.Fatal("no NACK rounds recorded")
	}
}

// TestRhoAdaptsAcrossIntervals: the deployed server runs AdjustRho.
// Half the members lose every ENC packet (they learn of the message
// from round one's single proactive parity packet per block), so the
// first interval draws more first-round NACKs than the target; rho must
// rise, and the next interval's round one must carry
// ProactiveParity(k, rho) parity per block.
func TestRhoAdaptsAcrossIntervals(t *testing.T) {
	drop := func(i int) func([]byte) bool {
		if i%2 == 0 {
			return nil
		}
		return func(pkt []byte) bool {
			typ, err := packet.Detect(pkt)
			return err == nil && typ == packet.TypeENC
		}
	}
	reg := obs.New()
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.1
	tun.NumNACK = 1
	ks, srv, clients := group(t, 24, drop, rekey.WithTuning(tun), rekey.WithKeySeed(4), rekey.WithObs(reg))
	rho := srv.eng.Rho()
	if rho <= tun.InitialRho {
		t.Fatalf("rho after a NACK-heavy interval = %v, want > %v", rho, tun.InitialRho)
	}

	for _, id := range []rekey.MemberID{3, 8} {
		if err := ks.QueueLeave(id); err != nil {
			t.Fatal(err)
		}
		clients[id].Close()
		srv.RemoveMemberAddr(id)
		delete(clients, id)
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Distribute(context.Background(), rm, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitKeyed(t, ks, clients, 5*time.Second)
	if st.Rho != rho {
		t.Fatalf("Stats.Rho = %v, want the adapted %v", st.Rho, rho)
	}
	k := tun.K
	want := rm.Blocks() * (k + blockplan.ProactiveParity(k, rho))
	found := false
	for _, ev := range reg.Events() {
		if ev.Kind == obs.EvRoundStart && ev.MsgID == rm.MsgID && ev.Round == 1 {
			found = true
			if int(ev.Value) != want {
				t.Fatalf("round one sent %v packets, want %d blocks x (k + ProactiveParity(k, %v)) = %d",
					ev.Value, rm.Blocks(), rho, want)
			}
		}
	}
	if !found {
		t.Fatal("no round-one RoundStart event for the second interval")
	}
	if st.ParitySent < rm.Blocks()*blockplan.ProactiveParity(k, rho) {
		t.Fatalf("sent %d parity packets, fewer than round one's proactive parity", st.ParitySent)
	}
}

func TestDistributeEmptyMessage(t *testing.T) {
	ks, err := rekey.NewServer(rekey.WithKeySeed(3))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st, err := srv.Distribute(context.Background(), &rekey.RekeyMessage{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.EncSent != 0 {
		t.Fatal("sent packets for an empty message")
	}
}
