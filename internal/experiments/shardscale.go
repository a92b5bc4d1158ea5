// Sharded scale-out: the same churn scenarios of scenarios.go driven
// through the internal/shard Coordinator at 1, 2, 4 and 8 shards, with
// the invariant oracles watching every merged consistent-cut message
// and a netsim transport leg delivering one shard's channel per
// interval. Each shard models one single-core key server (shard trees
// and the coordinator's batch phase both run with one worker), so the
// interval critical path -- the slowest shard's batch plus the serial
// top-tree merge -- is what a horizontally scaled deployment would
// wait on. cmd/rekeybench renders the result as the "Sharded
// scale-out" table in EXPERIMENTS.md.

package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/assign"
	"repro/internal/keytree"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/protocol"
	"repro/internal/shard"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// ShardCounts is the scale-out axis of the suite.
func ShardCounts() []int { return []int{1, 2, 4, 8} }

// shardScenarioSpecs returns the churn trajectories of the scale-out
// suite. Sizes differ from ScenarioSpecs: batches must be large enough
// that per-shard wall times dominate timer noise at 8 shards.
func shardScenarioSpecs() []ScenarioSpec {
	return []ScenarioSpec{
		{"diurnal", func(quick bool) workload.Scenario {
			if quick {
				return &workload.Diurnal{Base: 1024, Mean: 96, Amplitude: 0.8, Period: 4, Total: 8}
			}
			return &workload.Diurnal{Base: 8192, Mean: 256, Amplitude: 0.8, Period: 12, Total: 24}
		}},
		{"flash-crowd", func(quick bool) workload.Scenario {
			if quick {
				return &workload.FlashCrowd{Base: 512, Spike: 2048, SpikeAt: 1, Total: 4, Background: 16}
			}
			return &workload.FlashCrowd{Base: 4096, Spike: 16384, SpikeAt: 2, Total: 6, Background: 64}
		}},
	}
}

// shardRouteWidth is the member-ID block width dealt round-robin to
// shards. Narrow enough that the sequentially allocated scenario
// populations spread evenly at every shard count of the suite.
const shardRouteWidth = 16

// ShardCell is one (scenario, shard count) run of the scale-out suite.
type ShardCell struct {
	Scenario string
	Shards   int
	Rekeys   int // intervals that actually rekeyed
	FinalN   int
	Changes  int // joins+leaves applied across all rekeying intervals
	Encs     int // total encryptions, shard slices plus top tree
	TopEncs  int // coordinator top-tree encryptions within Encs
	// CritNs is the summed interval critical path: the slowest shard's
	// batch time plus the coordinator's serial merge, per interval.
	CritNs  int64
	MergeNs int64 // summed coordinator merge time within CritNs
	// Throughput is membership changes applied per critical-path
	// millisecond; Speedup is that rate relative to the 1-shard row of
	// the same scenario (filled by RunShardSuite).
	Throughput float64
	Speedup    float64
	Restores   int // mid-run snapshot failovers exercised
	Checks     int64
	Violations int64
	OK         bool
	Err        string
}

// shardRepeats is how many times each cell is re-run. A cell is fully
// deterministic given its seed -- identical churn, identical keys --
// so repeated runs differ only in wall time, and taking the
// interval-wise minimum critical path discards GC pauses and scheduler
// preemptions that would otherwise swamp quick-scale batches.
const shardRepeats = 3

// runShardCell runs one (scenario, shard count) cell shardRepeats
// times and folds the repeats into one row with noise-trimmed timing.
func runShardCell(ss ScenarioSpec, s int, opts Options) ShardCell {
	cell, crit, merge := runShardCellOnce(ss, s, opts)
	if !cell.OK {
		return cell
	}
	for r := 1; r < shardRepeats; r++ {
		again, crit2, merge2 := runShardCellOnce(ss, s, opts)
		if !again.OK {
			return again
		}
		if again.Encs != cell.Encs || len(crit2) != len(crit) {
			cell.OK = false
			cell.Err = fmt.Sprintf("repeat %d diverged: %d encs / %d intervals vs %d / %d",
				r, again.Encs, len(crit2), cell.Encs, len(crit))
			return cell
		}
		for i := range crit {
			if crit2[i] < crit[i] {
				crit[i] = crit2[i]
			}
			if merge2[i] < merge[i] {
				merge[i] = merge2[i]
			}
		}
	}
	cell.CritNs, cell.MergeNs = 0, 0
	for i := range crit {
		cell.CritNs += crit[i]
		cell.MergeNs += merge[i]
	}
	if cell.CritNs > 0 {
		cell.Throughput = float64(cell.Changes) / (float64(cell.CritNs) / 1e6)
	}
	return cell
}

// runShardCellOnce drives one scenario through a Coordinator with s
// shards, oracles active, restoring one shard from its own snapshot
// mid-run and delivering one shard's wire channel per interval over
// the paper's impaired star network. Returns the per-rekeying-interval
// critical-path and merge times alongside the aggregated cell.
func runShardCellOnce(ss ScenarioSpec, s int, opts Options) (ShardCell, []int64, []int64) {
	cell := ShardCell{Scenario: ss.ID, Shards: s}
	var critNs, mergeNs []int64
	fail := func(err error) (ShardCell, []int64, []int64) {
		cell.Err = err.Error()
		return cell, nil, nil
	}
	ctx := context.Background()

	tn := tuning.Default()
	tn.Shards = s
	tn.ShardRange = shardRouteWidth
	// One worker everywhere: each shard stands in for one single-core
	// server, so the measured fan-out is horizontal, not threading.
	tn.Workers = 1
	reg := obs.New()
	c, err := shard.NewCoordinator(shard.CoordinatorConfig{
		Tuning:  tn,
		KeySeed: opts.Seed ^ 0x5ad5,
		Obs:     reg,
	})
	if err != nil {
		return fail(err)
	}

	// Bootstrap the base population in one uncounted interval, then
	// seed the oracle's member views from the coordinator's tree view.
	scn := ss.Build(opts.Quick)
	n := scn.Bootstrap()
	for m := 0; m < n; m++ {
		if err := c.QueueJoin(keytree.Member(m)); err != nil {
			return fail(err)
		}
	}
	if _, err := c.Rekey(ctx); err != nil {
		return fail(err)
	}
	pcfg := protocol.DefaultConfig()
	pcfg.Obs = reg
	orc := oracle.New(c, oracle.Config{
		MaxMulticastRounds: pcfg.MaxMulticastRounds,
		MaxUnicastWaves:    50,
	})
	orc.SetObs(reg)
	if err := orc.Bootstrap(); err != nil {
		return fail(err)
	}

	rng := rand.New(rand.NewPCG(opts.Seed, 0x5ca1e))
	next := keytree.Member(n)
	alloc := func() keytree.Member {
		m := next
		next++
		return m
	}
	sess, err := protocol.NewSession(pcfg, nil, opts.Seed^0xbeef)
	if err != nil {
		return fail(err)
	}
	lastSent := -1 // last shard whose channel went over the wire
	for i := 0; i < scn.Intervals(); i++ {
		joins, leaves := scn.Churn(i, c.Members(), rng, alloc)
		for _, m := range leaves {
			if err := c.QueueLeave(m); err != nil {
				return fail(err)
			}
		}
		for _, m := range joins {
			if err := c.QueueJoin(m); err != nil {
				return fail(err)
			}
		}
		m, err := c.Rekey(ctx)
		if errors.Is(err, shard.ErrNoChange) {
			continue
		}
		if err != nil {
			return fail(err)
		}
		if err := orc.ObserveBatch(m, joins, leaves); err != nil {
			return fail(err)
		}
		cell.Rekeys++
		cell.Changes += len(joins) + len(leaves)
		cell.Encs += m.TotalEncryptions()
		cell.TopEncs += len(m.TopEncs)
		var maxBatch int64
		for _, ns := range m.ShardBatchNs {
			if ns > maxBatch {
				maxBatch = ns
			}
		}
		critNs = append(critNs, maxBatch+m.MergeNs)
		mergeNs = append(mergeNs, m.MergeNs)
		cell.CritNs += maxBatch + m.MergeNs
		cell.MergeNs += m.MergeNs

		// Mid-run failover: restore one shard from its own snapshot and
		// keep going; the oracle must not notice.
		if s > 1 && i == scn.Intervals()/2 {
			idx := s / 2
			if err := c.RestoreShard(idx, c.Shard(idx).Snapshot()); err != nil {
				return fail(err)
			}
		}

		// Transport leg: deliver one changed shard's wire channel over
		// the impaired star, rotating through shards across intervals.
		// Per-shard channels keep block IDs and user ranges local, so a
		// shard's slice replays through the unsharded protocol stack.
		send := -1
		for k := 1; k <= s; k++ {
			cand := (lastSent + k) % s
			if m.Slices[cand].Res != nil {
				send = cand
				break
			}
		}
		if send < 0 {
			continue
		}
		lastSent = send
		res := m.Slices[send].Res
		plan, err := assign.Build(res)
		if err != nil {
			return fail(err)
		}
		pmsg, err := protocol.BuildMessage(res, plan, pcfg.K, c.Degree())
		if err != nil {
			return fail(err)
		}
		star, err := netsim.NewStar(netsim.DefaultStar(c.Shard(send).N(), opts.Seed^0xce11+uint64(i)))
		if err != nil {
			return fail(err)
		}
		sess.Rebind(star)
		met, err := sess.Run(pmsg)
		if err != nil {
			return fail(err)
		}
		if err := orc.CheckRecovery(met); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < s; i++ {
		if err := c.Shard(i).CheckInvariant(); err != nil {
			return fail(err)
		}
		cell.Restores += c.Shard(i).Restores()
	}
	cell.FinalN = c.N()
	if cell.CritNs > 0 {
		cell.Throughput = float64(cell.Changes) / (float64(cell.CritNs) / 1e6)
	}
	cell.Checks = reg.CounterValue(obs.COracleChecks)
	cell.Violations = reg.CounterValue(obs.COracleViolations)
	cell.OK = cell.Violations == 0 && cell.Err == "" && cell.Rekeys > 0 &&
		(s == 1 || cell.Restores > 0)
	return cell, critNs, mergeNs
}

// RunShardSuite runs every scenario at every shard count and fills the
// per-scenario speedup column relative to the 1-shard row.
func RunShardSuite(opts Options) []ShardCell {
	opts = opts.fill()
	var cells []ShardCell
	base := make(map[string]float64) // scenario -> 1-shard throughput
	for _, ss := range shardScenarioSpecs() {
		for _, s := range ShardCounts() {
			cell := runShardCell(ss, s, opts)
			if s == 1 {
				base[ss.ID] = cell.Throughput
			}
			if b := base[cell.Scenario]; b > 0 {
				cell.Speedup = cell.Throughput / b
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// ShardMarkdown renders the suite as the markdown table embedded in
// EXPERIMENTS.md ("Sharded scale-out").
func ShardMarkdown(cells []ShardCell) string {
	var b strings.Builder
	b.WriteString("| scenario | shards | rekeys | final N | changes | encryptions | top encs | crit path ms | merge ms | changes/ms | speedup | restores | oracle checks | violations | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, c := range cells {
		verdict := "PASS"
		if !c.OK {
			verdict = "FAIL"
			if c.Err != "" {
				verdict = "FAIL: " + c.Err
			}
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d | %.2f | %.2f | %.0f | %.2f | %d | %d | %d | %s |\n",
			c.Scenario, c.Shards, c.Rekeys, c.FinalN, c.Changes, c.Encs, c.TopEncs,
			float64(c.CritNs)/1e6, float64(c.MergeNs)/1e6, c.Throughput, c.Speedup,
			c.Restores, c.Checks, c.Violations, verdict)
	}
	return b.String()
}

// shardCheckSpeedupFloor is the 4-shard diurnal speedup the quick-scale
// CI guard insists on. The committed full-scale table shows >= 3x; the
// CI floor is deliberately lenient because quick-scale batches are
// small enough for shared-runner timer noise to matter.
const shardCheckSpeedupFloor = 1.5

// ShardCheck runs the quick-scale suite and returns an error if any
// cell fails, any oracle violation fires, or the diurnal 4-shard run
// loses the scale-out win -- the CI guard behind rekeybench
// -shard.check.
func ShardCheck(opts Options) error {
	opts.Quick = true
	cells := RunShardSuite(opts)
	var bad []string
	for _, c := range cells {
		if !c.OK || c.Violations != 0 {
			bad = append(bad, fmt.Sprintf("%s/%d shards: %s", c.Scenario, c.Shards, c.Err))
		}
		if c.Scenario == "diurnal" && c.Shards == 4 && c.Speedup < shardCheckSpeedupFloor {
			bad = append(bad, fmt.Sprintf("diurnal 4-shard speedup %.2f below floor %.1f", c.Speedup, shardCheckSpeedupFloor))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("shard check: %d problem(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}
