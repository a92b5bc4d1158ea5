// Command perfbench is the repository's interval benchmark: it runs
// whole rekey intervals through the library's public API -- a signing
// rekey.Server, the paper's Gilbert loss model, and sampled
// signature-verifying rekey.Members -- and reports end-to-end and
// per-layer metrics.
//
//	go run . --workload paper --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last output line carries the end-to-end metrics of
// an untraced run. With --trace 1 it carries the per-layer metrics of a
// traced run of the same seed, preceded by an untraced run that gives
// the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/gf256"
	"repro/internal/keys"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// workload is one benchmark input shape. Churn is J = L per interval,
// so the group size stays N.
type workload struct {
	Name    string
	N       int
	Churn   int
	Sampled int
	// Counted is the number of leading intervals the count metrics
	// cover; fixed per workload so that they repeat exactly for a seed
	// whatever the run length.
	Counted int
	// Lossless replaces the paper's loss rates by zero (tests only).
	Lossless bool
}

// star returns the loss model over the sampled members.
func (w workload) star(seed uint64) netsim.StarConfig {
	c := netsim.DefaultStar(w.Sampled, seed)
	if w.Lossless {
		c.Alpha, c.PHigh, c.PLow, c.PSource = 0, 0, 0, 0
	}
	return c
}

// The workloads stress the layers from both ends of batch size.
var workloads = []workload{
	// The paper's evaluation point: every layer does real work,
	// including NACK rounds, unicast and FEC decode.
	{Name: "paper", N: 4096, Churn: 1024, Sampled: 128, Counted: 100},
	// Server-bound: the key-tree batch, interval auth and the marshal
	// of ~836 datagrams dominate. N=32768 is the largest power of two
	// the 16-bit wire fields carry.
	{Name: "bulk", N: 32768, Churn: 8192, Sampled: 8, Counted: 64},
	// Per-interval fixed costs: the O(N) USR subtree, the RSA signature
	// and one RSA verify per member. With h=2, whole-interval loss
	// happens, so the protocol's edge cases show.
	{Name: "trickle", N: 4096, Churn: 4, Sampled: 256, Counted: 300},
}

// The protocol knobs every workload uses: the paper's d, k and ρ0.
const (
	degree = 4
	blockK = 10
	rho0   = 1.0
)

const (
	rsaBits = 2048
	// warmupIntervals run before timing starts.
	warmupIntervals = 2
	// setupRepeats is how often an untraced run builds the group; it
	// reports the median.
	setupRepeats = 15
	// maxTraced caps the traced half of a traced run.
	maxTraced = 15 * time.Second
	// unattributedBound is the share of interval wall time the traced
	// run may leave unattributed before it flags the reconciliation.
	unattributedBound = 0.10
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "paper", "workload: paper, bulk or trickle")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w workload
	for _, c := range workloads {
		if c.Name == *name {
			w = c
		}
	}
	if w.Name == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *seconds, *trace)
		return 2
	}
	ctx := context.Background()
	signer, err := keys.NewSigner(rsaBits)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 0 {
		rep, err = untracedRun(ctx, w, *seed, signer, dur)
	} else {
		rep, err = tracedRun(ctx, w, *seed, signer, dur, filepath.Join(*spans, fmt.Sprintf("%s-seed%d.tsv.gz", w.Name, *seed)))
	}
	if err != nil {
		// A wrong key (errWrongKey) lands here too: the run prints no
		// result and fails.
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.Name, *seed, err)
		return 1
	}
	for _, l := range rep.notes {
		fmt.Fprintln(stdout, l)
	}
	prov, _ := json.Marshal(rep.provenance)
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	out, _ := json.Marshal(rep.result)
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	notes      []string
	provenance map[string]any
	result     result
}

// counts are the count metrics' inputs over a workload's first Counted
// intervals.
type counts struct {
	intervals, memberIntervals, adopted, roundSum, unicastNeeded, failed int
	multicast, h, wireBytes                                              int
}

// metrics returns the count metrics. They repeat exactly for a seed.
func (c counts) metrics() map[string]metric {
	mi := float64(c.memberIntervals)
	return map[string]metric{
		"member_rounds_mean":   {ratio(float64(c.roundSum), float64(c.adopted)), "rounds"},
		"multicast_overhead":   {ratio(float64(c.multicast), float64(c.h)), "ratio"},
		"wire_kb_per_interval": {ratio(float64(c.wireBytes), float64(c.intervals)) / kib, "KiB"},
		"unicast_frac":         {ratio(float64(c.unicastNeeded), mi), "ratio"},
		"key_fail_frac":        {ratio(float64(c.failed), mi), "ratio"},
	}
}

// runStats aggregates one measured phase of a run.
type runStats struct {
	intervals, timed int
	// Over the timed intervals.
	readyMs, keyUs []float64
	opsRates       []float64 // requests per second of server busy time, per interval
	allocBytes     uint64
	peakLive       uint64
	sum            intervalResult // summed by add
	firstIngestUs  []float64
	gcCycles       uint64
	gcPause        float64 // seconds
	obs0, obs1     obs.Snapshot
	// Over the first Counted intervals. The result's attempted and
	// failed come from here, so they repeat exactly for a seed whatever
	// the run length.
	cnt counts
	// Over every interval run; printed as a note.
	attempted, failed int
}

// tails returns the tail percentile of ready_ms and member_key_us with
// its sample count and the quantile actually reported.
func (st *runStats) tails() map[string]tail {
	return map[string]tail{"ready_ms": p90(st.readyMs), "member_key_us": p90(st.keyUs)}
}

// tail is a reported tail percentile.
type tail struct {
	Value    float64 `json:"p90"`
	Quantile float64 `json:"reported_quantile"`
	Samples  int     `json:"samples"`
}

// p90 returns the 90th percentile, lowered to keep minBeyond samples
// beyond it; the median when there are too few samples for any.
func p90(xs []float64) tail {
	v, q, n, ok := percentile(xs, 0.90)
	if !ok {
		v = median(xs)
	}
	return tail{v, q, n}
}

// measure runs intervals back to back, one in flight, until dur has
// passed and at least minIntervals ran. The first warmupIntervals are
// not timed; the first Counted feed the count metrics.
//
// Each interval starts after a forced collection, which is left out of
// every metric: the in-process members' garbage, which a deployment
// leaves on other hosts, is then not collected on the server's clock.
// The collection also makes the live-heap sample exact.
func measure(ctx context.Context, g *group, dur time.Duration, minIntervals int) (*runStats, error) {
	st := &runStats{}
	var res intervalResult
	rt := newRuntimeReader()
	start := time.Now()
	for i := 0; ; i++ {
		if i >= minIntervals && i > warmupIntervals && time.Since(start) >= dur {
			break
		}
		if i == warmupIntervals {
			st.obs0 = g.reg.Snapshot()
		}
		runtime.GC()
		rt0 := rt.read()
		// The sample slices grow with the run; leaving them out keeps
		// the live heap independent of how many intervals a run fits.
		samples := uint64(cap(st.readyMs)+cap(st.keyUs)+cap(st.firstIngestUs)+cap(st.opsRates)) * 8
		if err := g.interval(ctx, &res); err != nil {
			return nil, err
		}
		rt1 := rt.read()
		st.intervals++
		st.attempted += len(g.members)
		st.failed += res.failed
		if i < g.w.Counted {
			c := &st.cnt
			c.intervals++
			c.memberIntervals += len(g.members)
			c.adopted += res.adopted
			c.roundSum += res.roundSum
			c.unicastNeeded += res.unicastNeeded
			c.failed += res.failed
			c.multicast += res.multicast
			c.h += res.h
			c.wireBytes += res.wireBytes
		}
		if i < warmupIntervals {
			continue
		}
		st.timed++
		st.readyMs = append(st.readyMs, ms(res.ready))
		for _, d := range res.keyTimes {
			st.keyUs = append(st.keyUs, us(d))
		}
		for _, d := range res.firstIngest {
			st.firstIngestUs = append(st.firstIngestUs, us(d))
		}
		st.opsRates = append(st.opsRates, float64(res.requests)/res.serverBusy.Seconds())
		st.allocBytes += rt1.allocs - rt0.allocs
		st.gcCycles += rt1.gcCycles - rt0.gcCycles
		st.gcPause += rt1.gcPause - rt0.gcPause
		st.peakLive = max(st.peakLive, rt0.live-samples)
		st.sum.add(&res)
	}
	st.obs1 = g.reg.Snapshot()
	return st, nil
}

// add sums into s the fields of r the traced run reports.
func (s *intervalResult) add(r *intervalResult) {
	s.h += r.h
	s.blocks += r.blocks
	s.encryptions += r.encryptions
	s.usrLeaves += r.usrLeaves
	s.dupOverhead += r.dupOverhead
	s.parity += r.parity
	s.usrSent += r.usrSent
	s.built += r.built
	s.nackRound1 += r.nackRound1
	s.adopted += r.adopted
	s.recovered += r.recovered
	s.datagramsToKey += r.datagramsToKey
	s.ingests += r.ingests
	s.useful += r.useful
	s.errStale += r.errStale
	s.errBad += r.errBad
	s.errWrong += r.errWrong
	s.allocServer += r.allocServer
	s.allocMember += r.allocMember
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

const (
	kib = 1024.0
	mib = 1024.0 * 1024.0
)

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// untracedRun builds the group setupRepeats times, then measures for
// dur with the registry and tracer off, and reports the end-to-end
// metrics.
func untracedRun(ctx context.Context, w workload, seed uint64, signer *keys.Signer, dur time.Duration) (*report, error) {
	var setups []float64
	var g *group
	for i := 0; i < setupRepeats; i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if g, err = newGroup(w, seed, signer, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st, err := measure(ctx, g, dur, w.Counted)
	if err != nil {
		return nil, err
	}
	rep := newReport(w, seed, st)
	rep.setFailures(st)
	m := rep.result.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["ready_ms_p50"] = metric{median(st.readyMs), "ms"}
	m["member_key_us_p50"] = metric{median(st.keyUs), "us"}
	m["server_ops_per_s"] = metric{median(st.opsRates), "req/s"}
	c := st.cnt
	cm := c.metrics()
	for _, name := range []string{"member_rounds_mean", "multicast_overhead", "wire_kb_per_interval"} {
		m[name] = cm[name]
	}
	m["alloc_mb_per_interval"] = metric{ratio(float64(st.allocBytes), float64(st.timed)) / mib, "MiB"}
	m["peak_heap_mb"] = metric{float64(st.peakLive) / mib, "MiB"}
	rep.provenance["percentiles"] = st.tails()
	rep.provenance["setup_s_samples"] = setups
	rep.notes = append(rep.notes, fmt.Sprintf("# counts over the first %d intervals: unicast_frac %.5f, key_fail_frac %.6f (%d of %d member-intervals)",
		c.intervals, cm["unicast_frac"].Value, cm["key_fail_frac"].Value, c.failed, c.memberIntervals))
	return rep, nil
}

// newReport starts a report with the provenance every result carries.
func newReport(w workload, seed uint64, st *runStats) *report {
	star := w.star(seed)
	return &report{
		notes: []string{
			fmt.Sprintf("# perfbench %s seed %d: N=%d J=L=%d d=%d k=%d rho0=%g sampled=%d RSA-%d, closed loop, one interval in flight",
				w.Name, seed, w.N, w.Churn, degree, blockK, rho0, w.Sampled, rsaBits),
			"# NACKs travel loss-free; unsampled members are silent (they neither receive nor NACK).",
			"# known defect: a member that loses every multicast datagram of an interval never NACKs (Member.NACK",
			"#   returns false when nothing of the current message was seen), so it gets no unicast and keeps the",
			"#   old group key; such member-intervals are counted in failed and key_fail_frac, not rescued.",
		},
		provenance: map[string]any{
			"workload": w.Name, "seed": seed, "N": w.N, "J": w.Churn, "L": w.Churn,
			"d": degree, "k": blockK, "rho0": rho0, "sampled_members": w.Sampled,
			"loss": map[string]any{
				"model": "gilbert star", "alpha": star.Alpha, "p_high": star.PHigh, "p_low": star.PLow,
				"p_source": star.PSource, "burst_mean_s": netsim.BurstMean,
				"send_spacing_s": netTiming.SendInterval, "round_slack_s": netTiming.RoundSlack,
				"unicast_gap_s": netTiming.UnicastInterval, "nacks": "loss-free",
			},
			"rsa_bits":          rsaBits,
			"intervals_run":     st.intervals,
			"intervals_timed":   st.timed,
			"intervals_counted": st.cnt.intervals,
			"gomaxprocs":        runtime.GOMAXPROCS(0),
			"num_cpu":           runtime.NumCPU(),
			"gf256_kernel":      gf256.KernelName(),
			"go_version":        runtime.Version(),
		},
		result: result{Correct: true, Metrics: map[string]metric{}},
	}
}

// setFailures sets the result's attempted and failed from the count
// prefix of st, an untraced phase, and notes the failures over the
// whole phase.
func (rep *report) setFailures(st *runStats) {
	rep.result.Attempted, rep.result.Failed = st.cnt.memberIntervals, st.cnt.failed
	rep.notes = append(rep.notes, fmt.Sprintf("# attempted/failed cover the first %d intervals; over all %d intervals run, %d of %d member-intervals failed",
		st.cnt.intervals, st.intervals, st.failed, st.attempted))
}
