package protocol

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/blockplan"
	"repro/internal/fec"
	"repro/internal/obs"
	"repro/internal/packet"
)

const (
	maxRounds = 64 // multicast round cap, the bound on MaxMulticastRounds = 0
	udpHeader = 8  // per-datagram bytes the EarlyUnicast rule charges
)

// Engine is the key server's transport loop -- proactive FEC at rho,
// NACK rounds, AdjustRho (Fig. 11), and the switch to unicast with
// escalating duplicates (Figs. 22 and 26) -- with no I/O of its own. It
// carries the state that persists across messages: rho, the
// first-round NACK target and the AdjustRho coin. Begin hands out one
// Transfer per message. Session drives engines over a simulated
// network and udptrans.Server over UDP sockets, so both run one policy.
// An Engine is not safe for concurrent use: a key server transfers one
// message at a time.
type Engine struct {
	cfg     Config
	rho     float64
	numNACK int
	rng     *rand.Rand
}

// NewEngine validates cfg and returns an engine at rho = InitialRho and
// the target NumNACK. seed drives the AdjustRho coin.
func NewEngine(cfg Config, seed uint64) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg.Obs.Set(obs.GRho, cfg.InitialRho)
	return &Engine{cfg: cfg, rho: cfg.InitialRho, numNACK: cfg.NumNACK,
		rng: rand.New(rand.NewPCG(seed, 0x5e55))}, nil
}

// Rho returns the proactivity factor the next message will use.
func (e *Engine) Rho() float64 { return e.rho }

// adjustRho implements the AdjustRho algorithm (Fig. 11) on message
// msgID's first-round NACK list a (each NACK's largest request). rho
// stays within the code's parity space, so round one's proactive
// parity always exists.
func (e *Engine) adjustRho(a []int, msgID uint8) {
	k := e.cfg.K
	target := e.numNACK
	before := e.rho
	switch {
	case len(a) > target:
		sort.Sort(sort.Reverse(sort.IntSlice(a)))
		add := a[target] // the (numNACK+1)-th largest request
		e.rho = (float64(add) + math.Ceil(float64(k)*e.rho-1e-9)) / float64(k)
		e.rho = min(e.rho, float64(fec.MaxShards)/float64(k))
	case len(a) < target:
		prob := math.Max(0, float64(target-len(a)*2)/float64(target))
		if e.rng.Float64() < prob {
			e.rho = math.Max(0, math.Ceil(float64(k)*e.rho-1-1e-9)) / float64(k)
		}
	}
	if e.rho != before {
		e.cfg.Obs.Emit(obs.Event{Kind: obs.EvRhoAdjusted, MsgID: msgID, Value: e.rho})
	}
	e.cfg.Obs.Set(obs.GRho, e.rho)
}

// Request is one block's entry of a NACK: Count more parity packets.
type Request struct{ Block, Count int }

// StepKind says what a Step asks the transport to do.
type StepKind uint8

const (
	// StepDone: the transfer is over (Metrics.AllDone says how).
	StepDone StepKind = iota
	// StepMulticast: multicast Refs, then report the round's NACKs.
	StepMulticast
	// StepUnicast: send Dups copies of each of Users' USR packets, then
	// report a NACK for every user still missing its keys.
	StepUnicast
)

// Step is the engine's next instruction to its transport; its slices
// stay valid until the next call to Next. Round is the 1-based
// multicast round or unicast wave. Parity is the per-block parity
// cursor after Refs: block b's parity packets [0, Parity[b]) are
// scheduled, the prefix a byte-level transport precomputes.
type Step struct {
	Kind   StepKind
	Round  int
	Refs   []blockplan.Ref
	Parity []int
	Users  []int
	Dups   int
}

// Transfer is one message's round state. The transport alternates Next
// (what to send) with NACK (what came back) until Next says StepDone.
type Transfer struct {
	e        *Engine
	part     blockplan.Partition
	id       uint8 // the 6-bit message ID trace events carry
	maxWaves int
	usrLen   func(user int) int
	met      Metrics
	unicast  bool
	done     bool
	round    int   // current multicast round, then unicast wave
	dups     int   // copies per user in the current unicast wave
	next     []int // per-block parity cursor
	// This round's NACK intake.
	seen    map[int]bool
	nackers []int // in arrival order
	amax    []int // largest request per block
	first   []int // round one: each NACK's largest request
}

// Begin starts the transfer of one message partitioned by part. msgID
// names it in Metrics and trace events; maxWaves bounds the unicast
// phase. usrLen, when non-nil, sizes a user's USR datagram for the
// EarlyUnicast rule; with nil the transfer never switches early.
func (e *Engine) Begin(part blockplan.Partition, msgID, maxWaves int, usrLen func(user int) int) *Transfer {
	blocks := part.NumBlocks()
	return &Transfer{
		e: e, part: part, id: uint8(msgID & packet.MaxMsgID), maxWaves: maxWaves, usrLen: usrLen,
		met: Metrics{MsgID: msgID, RhoUsed: e.rho, NumNACKTarget: e.numNACK,
			EncPackets: part.NumReal, Blocks: blocks, UserRoundHist: make(map[int]int)},
		next: make([]int, blocks), seen: make(map[int]bool), amax: make([]int, blocks),
	}
}

// Metrics returns the transfer's counts, final once Next has returned
// StepDone. The transport fills what only a simulation can know:
// NeededUsers, UserRoundHist and Elapsed.
func (t *Transfer) Metrics() *Metrics { return &t.met }

// NACK takes one user's feedback on the current round or wave and
// reports whether it was accepted: a user counts once per round. reqs
// carry the per-block parity demand; a unicast wave ignores them.
func (t *Transfer) NACK(user int, reqs []Request) bool {
	if t.done || t.round == 0 || t.seen[user] {
		return false
	}
	t.seen[user] = true
	t.nackers = append(t.nackers, user)
	if t.unicast {
		return true
	}
	top := 0
	for _, r := range reqs {
		if r.Block >= 0 && r.Block < len(t.amax) {
			t.amax[r.Block] = max(t.amax[r.Block], r.Count)
			top = max(top, r.Count)
		}
	}
	if t.round == 1 {
		t.first = append(t.first, top)
	}
	return true
}

// Next closes the current round with the NACKs taken so far and returns
// what to send next.
func (t *Transfer) Next() Step {
	switch {
	case t.done:
		return Step{}
	case t.round == 0:
		if t.part.NumReal == 0 {
			return t.finish(true)
		}
		perBlock := blockplan.FirstRound(t.part, t.e.rho)
		for b, shards := range perBlock {
			t.next[b] = len(shards) - t.part.K
		}
		return t.multicast(perBlock)
	case t.unicast:
		return t.endWave()
	}
	return t.endRound()
}

// endRound decides, after a multicast round, between done, another
// parity round and unicast.
func (t *Transfer) endRound() Step {
	cfg := &t.e.cfg
	nacks := len(t.nackers)
	t.met.NACKsPerRound = append(t.met.NACKsPerRound, nacks)
	t.met.MulticastRounds = t.round
	cfg.Obs.Observe(obs.HNACKsPerRound, float64(nacks))
	if t.round == 1 {
		t.met.Round1NACKs = nacks
		if cfg.AdaptiveRho {
			t.e.adjustRho(t.first, t.id)
		}
	}
	maxParity := fec.MaxShards - t.part.K
	parityLeft, parityBytes := false, 0
	for b, a := range t.amax {
		parityLeft = parityLeft || (a > 0 && t.next[b] < maxParity)
		parityBytes += a * (packet.PacketLen + udpHeader)
	}
	// EarlyUnicast switches once the pending users' USR datagrams are no
	// larger than the parity the next round would send.
	usrBytes := math.MaxInt
	if cfg.EarlyUnicast && t.usrLen != nil {
		usrBytes = 0
		for _, u := range t.nackers {
			usrBytes += t.usrLen(u)
		}
	}
	switch {
	case nacks == 0:
		t.endMulticast()
		return t.finish(true)
	case cfg.MaxMulticastRounds > 0 && t.round >= cfg.MaxMulticastRounds,
		t.round >= maxRounds, !parityLeft, usrBytes <= parityBytes:
		t.endMulticast()
		cfg.Obs.Emit(obs.Event{Kind: obs.EvSwitchToUnicast, MsgID: t.id, Round: t.round, Value: float64(nacks)})
		t.unicast, t.round, t.dups = true, 0, 1
		return t.wave()
	}
	perBlock := make([][]int, len(t.amax))
	for b, a := range t.amax {
		for ; a > 0 && t.next[b] < maxParity; a-- {
			perBlock[b] = append(perBlock[b], t.part.K+t.next[b])
			t.next[b]++
		}
	}
	return t.multicast(perBlock)
}

// endMulticast does the deadline accounting at the multicast/unicast
// boundary. A user misses the deadline iff it had not recovered by
// round DeadlineRounds (or the last round, if fewer ran), and every such
// user NACKed in that round.
func (t *Transfer) endMulticast() {
	cfg := &t.e.cfg
	if cfg.DeadlineRounds <= 0 {
		return
	}
	misses := t.met.NACKsPerRound[min(cfg.DeadlineRounds, t.round)-1]
	t.met.MissedDeadline = misses
	if cfg.AdaptNumNACK {
		if misses == 0 {
			t.e.numNACK = min(t.e.numNACK+1, cfg.MaxNACK)
		} else {
			t.e.numNACK = max(t.e.numNACK-misses, 0)
		}
	}
}

// endWave decides, after a unicast wave, whether another wave with one
// more duplicate per user is needed.
func (t *Transfer) endWave() Step {
	nacks := len(t.nackers)
	t.e.cfg.Obs.Observe(obs.HNACKsPerRound, float64(nacks))
	if nacks == 0 || t.round >= t.maxWaves {
		return t.finish(nacks == 0)
	}
	return t.wave()
}

// multicast opens the next multicast round, sending perBlock's shards
// interleaved across blocks (or block by block under SequentialSend).
func (t *Transfer) multicast(perBlock [][]int) Step {
	var refs []blockplan.Ref
	if t.e.cfg.SequentialSend {
		for b, shards := range perBlock {
			for _, sh := range shards {
				refs = append(refs, blockplan.Ref{Block: b, Shard: sh})
			}
		}
	} else {
		refs = blockplan.Interleave(perBlock)
	}
	t.round++
	t.met.MulticastSent += len(refs)
	for _, r := range refs {
		switch {
		case r.IsParity(t.part.K):
			t.met.ParitySent++
		case t.part.IsDuplicate(r.Block, r.Shard):
			t.met.DupSent++
		}
	}
	t.e.cfg.Obs.Emit(obs.Event{Kind: obs.EvRoundStart, MsgID: t.id, Round: t.round, Value: float64(len(refs))})
	t.resetIntake(t.nackers[:0])
	return Step{Kind: StepMulticast, Round: t.round, Refs: refs, Parity: t.next}
}

// wave opens the next unicast wave to the users that NACKed last.
func (t *Transfer) wave() Step {
	users := t.nackers
	t.round++
	t.dups++
	t.met.UnicastWaves = t.round
	t.met.UsrSent += len(users) * t.dups
	t.e.cfg.Obs.Inc(obs.CUnicastWaves)
	t.resetIntake(nil)
	return Step{Kind: StepUnicast, Round: t.round, Users: users, Dups: t.dups}
}

func (t *Transfer) finish(allDone bool) Step {
	t.done, t.met.AllDone = true, allDone
	return Step{}
}

func (t *Transfer) resetIntake(nackers []int) {
	clear(t.seen)
	clear(t.amax)
	t.nackers = nackers
}
