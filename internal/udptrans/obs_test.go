package udptrans

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	rekey "repro"
	"repro/internal/obs"
	"repro/internal/packet"
)

// TestMetricsMatchStats drives a full rekey over UDP loopback with a
// live registry and asserts the counters served over /metrics agree
// exactly with the Stats Distribute returns: the registry observes the
// same sends and NACK accepts the transport counts.
func TestMetricsMatchStats(t *testing.T) {
	reg := obs.New()
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.5 // half a block of proactive parity each round
	k := tun.K
	// Deterministic loss: members 4, 8, ... drop every ENC packet and
	// recover from parity alone (NACK -> reactive parity -> FEC).
	// Member 2 additionally drops all parity except the first shard of
	// each block, so it can NACK but never FEC-complete: it must be
	// finished by the unicast USR phase.
	drop := func(i int) func([]byte) bool {
		if i == 2 {
			return func(pkt []byte) bool {
				typ, err := packet.Detect(pkt)
				if err != nil || typ == packet.TypeUSR {
					return false
				}
				if typ == packet.TypePARITY {
					p, err := packet.ParsePARITY(append([]byte(nil), pkt...))
					return err == nil && int(p.Seq) != k
				}
				return true // all ENC
			}
		}
		if i%4 != 0 || i == 0 {
			return nil
		}
		return func(pkt []byte) bool {
			typ, err := packet.Detect(pkt)
			return err == nil && typ == packet.TypeENC
		}
	}
	ks, srv, clients := group(t, 36, drop, rekey.WithTuning(tun), rekey.WithKeySeed(11), rekey.WithObs(reg))

	// Counters accumulate across runs; measure the churn rekey as a diff.
	before := reg.Snapshot().Counters

	for _, id := range []rekey.MemberID{1, 3, 7, 9, 11, 13, 15, 17} {
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

	// Fetch the counters the way an operator would: over /metrics.
	rec := httptest.NewRecorder()
	reg.ServeMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics json: %v", err)
	}

	diff := func(name string) int64 { return snap.Counters[name] - before[name] }
	if got := diff("enc_sent"); got != int64(st.EncSent) {
		t.Errorf("enc_sent = %d, Stats.EncSent = %d", got, st.EncSent)
	}
	if got := diff("parity_sent"); got != int64(st.ParitySent) {
		t.Errorf("parity_sent = %d, Stats.ParitySent = %d", got, st.ParitySent)
	}
	if got := diff("usr_sent"); got != int64(st.UsrSent) {
		t.Errorf("usr_sent = %d, Stats.UsrSent = %d", got, st.UsrSent)
	}
	var wantNACKs int
	for _, n := range st.NACKsPerRound {
		wantNACKs += n
	}
	if got := diff("nack_recv"); got != int64(wantNACKs) {
		t.Errorf("nack_recv = %d, sum(Stats.NACKsPerRound) = %d", got, wantNACKs)
	}
	if got := diff("unicast_waves"); got != int64(st.UnicastWaves) {
		t.Errorf("unicast_waves = %d, Stats.UnicastWaves = %d", got, st.UnicastWaves)
	}
	if got := snap.Gauges["rho"]; got != srv.eng.Rho() {
		t.Errorf("rho gauge = %v, want the engine's %v", got, srv.eng.Rho())
	}
	// The loss regime guarantees the NACK path actually ran.
	if wantNACKs == 0 {
		t.Error("test exercised no NACKs; loss regime too mild")
	}

	// The trace must carry the run's round structure.
	var rounds, nackEvents int
	for _, ev := range reg.Events() {
		switch ev.Kind {
		case obs.EvRoundStart:
			if ev.MsgID == rm.MsgID {
				rounds++
			}
		case obs.EvNACKReceived:
			if ev.MsgID == rm.MsgID {
				nackEvents++
			}
		}
	}
	if rounds != st.Rounds {
		t.Errorf("RoundStart events = %d, Stats.Rounds = %d", rounds, st.Rounds)
	}
	if nackEvents != wantNACKs {
		t.Errorf("NACKReceived events = %d, want %d", nackEvents, wantNACKs)
	}
}

// TestDistributeContextCancel: a cancelled context aborts the
// NACK-collection wait instead of blocking out the full round timer.
func TestDistributeContextCancel(t *testing.T) {
	tun := rekey.DefaultTuning()
	tun.InitialRho = 1.0
	ks, err := rekey.NewServer(rekey.WithTuning(tun), rekey.WithKeySeed(21))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 8; i++ {
		if err := ks.QueueJoin(rekey.MemberID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rm, err := ks.Rekey()
	if err != nil {
		t.Fatal(err)
	}
	// No clients listen, so every round would wait out RoundDur.
	opts := DefaultOptions()
	opts.RoundDur = 10 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := srv.Distribute(ctx, rm, opts)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Distribute returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Distribute did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestClientRunContextCancel: cancelling the context stops a client's
// receive loop with ctx.Err(); Close still returns nil.
func TestClientRunContextCancel(t *testing.T) {
	ks, err := rekey.NewServer(rekey.WithKeySeed(22))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ks, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := ks.QueueJoin(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Rekey(); err != nil {
		t.Fatal(err)
	}
	cred, ok := ks.Credentials(1)
	if !ok {
		t.Fatal("no credentials")
	}
	c, err := NewClient(cred, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}
