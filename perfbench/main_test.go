package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/keys"
)

var testSigner = sync.OnceValues(func() (*keys.Signer, error) { return keys.NewSigner(rsaBits) })

func signer(t *testing.T) *keys.Signer {
	t.Helper()
	s, err := testSigner()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		v, q, got, ok := percentile(xs, 0.90)
		if got != n {
			t.Fatalf("n=%d: reported sample count %d", n, got)
		}
		if n <= minBeyond {
			if ok {
				t.Fatalf("n=%d: percentile reported without %d samples beyond it", n, minBeyond)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if !ok || beyond < minBeyond {
			t.Fatalf("n=%d: p90=%v has %d samples beyond it", n, v, beyond)
		}
		if v > math.Ceil(0.90*float64(n)) || q != v/float64(n) {
			t.Fatalf("n=%d: reported quantile %v for value %v", n, q, v)
		}
	}
	// With enough samples the requested quantile is reported as is.
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, q, _, _ := percentile(xs, 0.90); v != 180 || q != 0.90 {
		t.Fatalf("p90 of 1..200 = %v at quantile %v, want 180 at 0.90", v, q)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: spInterval, parent: -1, epoch: 1, start: 0, end: 100},
		{name: spRekey, parent: 0, epoch: 1, start: 10, end: 40},
		{name: spIngest, parent: 0, epoch: 1, start: 50, end: 60},
		{name: spInterval, parent: -1, epoch: 0, start: 0, end: 7},
	}}
	self := tr.selfTimes(0)
	if self["interval"] != 60 || self["rekey.Rekey"] != 30 || self["member.Ingest"] != 10 {
		t.Fatalf("self times %v", self)
	}
}

// TestLosslessGroupFinishesInRoundOne checks the round policy against
// what udptrans.Distribute does on a loss-free network: one multicast
// round of every ENC slot, no NACKs, no parity, no unicast, and every
// member keyed in round 1.
func TestLosslessGroupFinishesInRoundOne(t *testing.T) {
	w := workload{Name: "tiny", N: 256, Churn: 16, Sampled: 32, Counted: 6, Lossless: true}
	g, err := newGroup(w, 5, signer(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res intervalResult
	var c counts
	for i := 0; i < w.Counted; i++ {
		if err := g.interval(context.Background(), &res); err != nil {
			t.Fatal(err)
		}
		if res.rounds != 1 || res.nackRound1 != 0 || res.parity != 0 || res.usrSent != 0 {
			t.Fatalf("interval %d: rounds %d, NACKs %d, parity %d, USR %d; want 1, 0, 0, 0",
				i, res.rounds, res.nackRound1, res.parity, res.usrSent)
		}
		if res.adopted != w.Sampled || res.failed != 0 || res.roundSum != w.Sampled {
			t.Fatalf("interval %d: %d adopted (round sum %d), %d failed of %d members",
				i, res.adopted, res.roundSum, res.failed, w.Sampled)
		}
		if res.multicast != res.slots {
			t.Fatalf("interval %d: %d multicast datagrams, want %d slots", i, res.multicast, res.slots)
		}
		c.intervals++
		c.memberIntervals += w.Sampled
		c.adopted += res.adopted
		c.roundSum += res.roundSum
		c.multicast += res.multicast
		c.h += res.h
	}
	m := c.metrics()
	if got, want := m["multicast_overhead"].Value, float64(c.multicast)/float64(c.h); got != want || got <= 1 {
		t.Fatalf("multicast_overhead %v, want slots/h = %v", got, want)
	}
	if m["member_rounds_mean"].Value != 1 || m["unicast_frac"].Value != 0 || m["key_fail_frac"].Value != 0 {
		t.Fatalf("count metrics %v", m)
	}
}

func countMetrics(t *testing.T, w workload, seed uint64) map[string]metric {
	t.Helper()
	g, err := newGroup(w, seed, signer(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := measure(context.Background(), g, 0, w.Counted)
	if err != nil {
		t.Fatal(err)
	}
	if st.cnt.intervals != w.Counted {
		t.Fatalf("count prefix covers %d intervals, want %d", st.cnt.intervals, w.Counted)
	}
	return st.cnt.metrics()
}

func TestCountMetricsRepeatForSeed(t *testing.T) {
	w := workload{Name: "small", N: 1024, Churn: 64, Sampled: 48, Counted: 12}
	a := countMetrics(t, w, 7)
	b := countMetrics(t, w, 7)
	c := countMetrics(t, w, 8)
	differs := false
	for name, ma := range a {
		if b[name] != ma {
			t.Errorf("%s: %v then %v for one seed", name, ma, b[name])
		}
		if c[name] != ma {
			differs = true
		}
	}
	if !differs {
		t.Errorf("seeds 7 and 8 gave identical count metrics %v", a)
	}
	if a["member_rounds_mean"].Value <= 1 || a["multicast_overhead"].Value <= 1 {
		t.Errorf("lossy run shows no loss recovery: %v", a)
	}
}

func TestRunPrintsEveryMetricWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trickle workload twice")
	}
	// attempted and failed cover the count prefix, so both runs of the
	// seed report the same ones whatever their length.
	tr := workloads[2]
	var first result
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		args := []string{"--workload", tr.Name, "--seed", "1", "--seconds", "1", "--trace", trace, "--spans", t.TempDir()}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Attempted != tr.Counted*tr.Sampled {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		if trace == "0" {
			first = res
		} else if res.Attempted != first.Attempted || res.Failed != first.Failed {
			t.Errorf("traced run: %d of %d failed, untraced %d of %d", res.Failed, res.Attempted, first.Failed, first.Attempted)
		}
		want := []string{"setup_s", "ready_ms_p50", "server_ops_per_s", "member_key_us_p50",
			"member_rounds_mean", "multicast_overhead", "wire_kb_per_interval",
			"alloc_mb_per_interval", "peak_heap_mb"}
		if trace == "1" {
			want = []string{"rekey.rekey_ms", "auth.build_ms", "member.ingest_ns", "unattributed_ms",
				"trace.overhead_pct", "unicast_frac", "key_fail_frac", "ready_ms_p90", "member_key_us_p90"}
		}
		for _, name := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
				t.Errorf("trace %s: metric %s missing or without unit", trace, name)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
}
