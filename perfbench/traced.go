package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/packet"
)

// tracedRun measures the same seed twice: first untraced, for the
// tracing overhead, the tail percentiles and the count shares, then
// with spans and an obs registry attached, for the per-layer metrics.
// The traced half is capped at maxTraced, which bounds the spans held
// in memory; they are written to spansPath when the run ends.
func tracedRun(ctx context.Context, w workload, seed uint64, signer *keys.Signer, dur time.Duration, spansPath string) (*report, error) {
	traced := min(dur/2, maxTraced)
	g, err := newGroup(w, seed, signer, nil, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measure(ctx, g, dur-traced, w.Counted)
	if err != nil {
		return nil, err
	}
	g = nil
	runtime.GC()
	reg := obs.New()
	tr := newTracer()
	if g, err = newGroup(w, seed, signer, reg, tr); err != nil {
		return nil, err
	}
	st, err := measure(ctx, g, traced, 0)
	if err != nil {
		return nil, err
	}

	// Calibration, outside the intervals: one RSA signature over a
	// fresh root per traced interval.
	rng := rand.New(rand.NewPCG(seed, 0x5167))
	signs := make([]float64, st.timed)
	for i := range signs {
		var root keys.MerkleHash
		for j := range root {
			root[j] = byte(rng.Uint32())
		}
		t0 := time.Now()
		if _, err := signer.SignRoot(root); err != nil {
			return nil, err
		}
		signs[i] = ms(time.Since(t0))
	}

	rep := newReport(w, seed, st)
	rep.provenance["untraced_intervals_run"] = plain.intervals
	rep.provenance["intervals_counted"] = plain.cnt.intervals
	rep.setFailures(plain)
	m := rep.result.Metrics
	T := float64(st.timed)
	S := float64(w.Sampled)
	mi := T * S // timed member-intervals
	minEpoch := uint64(warmupIntervals)
	self := tr.selfTimes(minEpoch)
	perInterval := func(d time.Duration) float64 { return ms(d) / T }
	selfOf := func(prefix string) time.Duration {
		var sum time.Duration
		for name, d := range self {
			if strings.HasPrefix(name, prefix) {
				sum += d
			}
		}
		return sum
	}
	counter := func(name string) float64 {
		return float64(st.obs1.Counters[name] - st.obs0.Counters[name])
	}
	hist := func(name string) (sum, count float64) {
		a, b := st.obs0.Histograms[name], st.obs1.Histograms[name]
		return b.Sum - a.Sum, float64(b.Count - a.Count)
	}
	s := &st.sum

	rekeyMs := perInterval(self["rekey.Rekey"])
	batchS, _ := hist("shard_batch_s")
	authS, _ := hist("sign_root_s")
	proofSum, proofN := hist("merkle_proof_bytes")
	signMs := median(signs)
	m["rekey.rekey_ms"] = metric{rekeyMs, "ms"}
	m["keytree.batch_ms"] = metric{batchS * 1e3 / T, "ms"}
	m["keytree.encryptions"] = metric{float64(s.encryptions) / T, "count"}
	m["keys.wrap_ns"] = metric{ratio(counter("wrap_ns"), counter("wraps")), "ns"}
	m["keys.keys_generated"] = metric{counter("keys_generated") / T, "count"}
	m["auth.build_ms"] = metric{authS * 1e3 / T, "ms"}
	m["auth.usr_leaves"] = metric{float64(s.usrLeaves) / T, "count"}
	m["keys.rsa_sign_ms"] = metric{signMs, "ms"}
	m["rekey.other_ms"] = metric{rekeyMs - (batchS+authS)*1e3/T, "ms"}
	m["assign.enc_packets"] = metric{float64(s.h) / T, "count"}
	m["assign.dup_overhead"] = metric{s.dupOverhead / T, "ratio"}
	m["blockplan.blocks"] = metric{float64(s.blocks) / T, "count"}
	m["fec.parity_ms"] = metric{perInterval(self["fec.PrecomputeParity"]), "ms"}
	m["fec.parity_packets"] = metric{float64(s.parity) / T, "count"}
	m["fec.cache_hit_ratio"] = metric{ratio(counter("parity_cache_hit"), counter("parity_cache_hit")+counter("parity_cache_miss")), "ratio"}
	m["wire.ms"] = metric{perInterval(selfOf("wire.")), "ms"}
	m["wire.datagrams"] = metric{float64(s.built) / T, "count"}
	m["wire.trailer_bytes"] = metric{ratio(proofSum, proofN), "bytes"}
	m["nack.count_round1"] = metric{float64(s.nackRound1) / T, "count"}
	m["nack.us"] = metric{us(self["nack.parse"]) / T, "us"}
	m["unicast.usr_sent"] = metric{float64(s.usrSent) / T, "count"}
	m["member.ingest_ns"] = metric{median(tr.durations(spIngest, minEpoch)), "ns"}
	m["member.datagrams_per_key"] = metric{ratio(float64(s.datagramsToKey), float64(s.adopted)), "count"}
	m["member.useful_ratio"] = metric{ratio(float64(s.useful), float64(s.ingests)), "ratio"}
	m["member.err_frac"] = metric{ratio(float64(s.errStale+s.errBad+s.errWrong), float64(s.ingests)), "ratio"}
	m["member.err_stale_frac"] = metric{ratio(float64(s.errStale), float64(s.ingests)), "ratio"}
	m["member.err_bad_frac"] = metric{ratio(float64(s.errBad), float64(s.ingests)), "ratio"}
	m["member.err_wrong_frac"] = metric{ratio(float64(s.errWrong), float64(s.ingests)), "ratio"}
	m["member.fec_recovered_frac"] = metric{ratio(float64(s.recovered), float64(s.adopted)), "ratio"}
	m["member.nack_us"] = metric{us(self["member.NACK"]) / mi, "us"}
	m["member.first_ingest_us"] = metric{median(st.firstIngestUs), "us"}
	m["alloc.server_mb"] = metric{float64(s.allocServer) / T / mib, "MiB"}
	m["alloc.member_kb"] = metric{float64(s.allocMember) / mi / kib, "KiB"}
	m["gc.cycles"] = metric{float64(st.gcCycles) / T, "count"}
	m["gc.pause_ms"] = metric{st.gcPause * 1e3 / T, "ms"}
	m["harness.netsim_ms"] = metric{perInterval(self["harness.netsim"]), "ms"}
	m["harness.check_ms"] = metric{perInterval(self["harness.check"]), "ms"}
	m["unattributed_ms"] = metric{perInterval(self["interval"]), "ms"}
	var wall time.Duration
	for _, d := range self {
		wall += d
	}
	m["interval.wall_ms"] = metric{perInterval(wall), "ms"}
	opsPlain, opsTraced := median(plain.opsRates), median(st.opsRates)
	m["trace.overhead_pct"] = metric{100 * ratio(opsPlain-opsTraced, opsPlain), "%"}
	// Tail latencies and count shares come from the untraced half.
	cm := plain.cnt.metrics()
	m["unicast_frac"] = cm["unicast_frac"]
	m["key_fail_frac"] = cm["key_fail_frac"]
	tails := plain.tails()
	m["ready_ms_p90"] = metric{tails["ready_ms"].Value, "ms"}
	m["member_key_us_p90"] = metric{tails["member_key_us"].Value, "us"}
	rep.provenance["percentiles"] = tails

	rep.notes = append(rep.notes, reconcile(w.Name, self, T, m)...)
	rep.notes = append(rep.notes, modelCheck(w, signMs, m, st, T)...)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("# %d spans written to %s", len(tr.spans), spansPath))
	return rep, nil
}

// reconcile prints each layer's self time per interval and checks that
// they, the loss model's time and the unattributed remainder add up to
// the interval wall time. The Rekey span is split further by the obs
// histograms already in m.
func reconcile(name string, self map[string]time.Duration, T float64, m map[string]metric) []string {
	names := make([]string, 0, len(self))
	var wall time.Duration
	for n, d := range self {
		names = append(names, n)
		wall += d
	}
	slices.Sort(names)
	out := []string{fmt.Sprintf("# reconciliation %s, ms per interval (self time):", name)}
	var layers time.Duration
	for _, n := range names {
		if n == "interval" || n == "harness.netsim" {
			continue
		}
		layers += self[n]
		out = append(out, fmt.Sprintf("#   %-24s %10.3f", n, ms(self[n])/T))
		if n == "rekey.Rekey" {
			for _, sub := range []string{"keytree.batch_ms", "auth.build_ms", "rekey.other_ms"} {
				out = append(out, fmt.Sprintf("#     %-22s %10.3f", sub, m[sub].Value))
			}
		}
	}
	un, ns := self["interval"], self["harness.netsim"]
	share := ratio(float64(un), float64(wall))
	verdict := "within"
	if share > unattributedBound {
		verdict = "OVER"
	}
	out = append(out,
		fmt.Sprintf("#   layers %.3f + harness.netsim %.3f + unattributed %.3f = interval wall %.3f",
			ms(layers)/T, ms(ns)/T, ms(un)/T, ms(wall)/T),
		fmt.Sprintf("#   unattributed share %.2f%%, %s the %.0f%% bound", 100*share, verdict, 100*unattributedBound))
	return out
}

// modelCheck fills analysis.Costs from the traced run and prints the
// capacity model's predicted server time next to the measured one.
func modelCheck(w workload, signMs float64, m map[string]metric, st *runStats, T float64) []string {
	perParity := ratio(m["fec.parity_ms"].Value/1e3, m["fec.parity_packets"].Value*blockK)
	costs := analysis.Costs{
		Sign:               signMs / 1e3,
		Wrap:               m["keys.wrap_ns"].Value / 1e9,
		ParityPerBlockByte: perParity,
		PacketLen:          packet.PacketLen,
	}
	measured := float64(w.Churn*2) / median(st.opsRates) * 1e3
	pred, err := analysis.ServerWork(costs, w.N, degree, float64(w.Churn)/float64(w.N), blockK, rho0)
	line := fmt.Sprintf("# capacity model (report only): analysis.ServerWork predicts %.3f ms per interval, measured server busy %.3f ms", pred*1e3, measured)
	if err != nil {
		line = fmt.Sprintf("# capacity model (report only): analysis.ServerWork has no prediction (%v); measured server busy %.3f ms", err, measured)
	}
	return []string{line,
		"#   model gaps: encryptions estimated from leaves only (joins ignored), no O(N) USR-subtree term,",
		"#   no parity term at rho0=1 (reactive parity unmodelled), no marshal, NACK or unicast work."}
}
