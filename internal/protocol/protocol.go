// Package protocol implements the rekey transport protocol's server and
// user state machines (Figures 2, 3, 11, 22, 26 and 27 of the protocol
// paper).
//
// For each rekey message the server multicasts the message's ENC packets
// plus ceil((rho-1)*k) proactive PARITY packets per block, interleaved
// across blocks. At each round boundary it collects NACKs, each carrying
// the number of parity packets a user still needs per block; it then
// either multicasts amax[i] fresh parity packets per block, or -- after
// at most MaxMulticastRounds rounds, or as soon as unicasting would be
// cheaper -- switches to unicasting small USR packets with escalating
// duplication. The proactivity factor rho adapts across messages so the
// first-round NACK count tracks a target (AdjustRho, Fig. 11), and the
// target itself adapts to deadline misses.
//
// Engine is that server loop with no I/O. Session drives it over a
// simulated multicast network (package netsim) and udptrans.Server over
// UDP sockets. The simulation tracks packet bookkeeping rather than
// ciphertext bytes: which shards each user received determines
// recoverability exactly (the MDS property of the FEC code), so
// bandwidth, NACK, latency and deadline metrics are identical to a
// byte-level run at a fraction of the cost.
package protocol

import (
	"fmt"
	"sync"

	"repro/internal/assign"
	"repro/internal/blockplan"
	"repro/internal/keytree"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/tuning"
)

// Config holds the transport protocol parameters. The shared knobs
// (k, degree, rho0, NACK targets, round budget, workers) come from the
// embedded tuning core -- the same struct rekey.Config embeds -- so
// they are defined and validated in exactly one place; the fields
// declared here are the Engine's policy switches, which the UDP
// transport takes at their defaults, and the simulation's timing.
// DefaultConfig returns the paper's defaults.
type Config struct {
	// Tuning is the shared knob core; see package tuning. The session
	// reads Degree only through each Message's TreeDegree.
	tuning.Tuning
	// AdaptiveRho enables the AdjustRho algorithm; when false, rho stays
	// at InitialRho for every message.
	AdaptiveRho bool
	// AdaptNumNACK enables deadline-driven adaptation of NumNACK
	// (requires DeadlineRounds > 0).
	AdaptNumNACK bool
	// EarlyUnicast also switches to unicast as soon as the total size of
	// the pending USR packets is no more than the PARITY packets the
	// next multicast round would send.
	EarlyUnicast bool
	// DeadlineRounds is the soft real-time deadline, in multicast
	// rounds. Zero disables deadline accounting.
	DeadlineRounds int
	// SendInterval is the time between consecutive multicast packets
	// (seconds); the paper's server sends 10 packets/second.
	SendInterval float64
	// RoundSlack is added to each round's duration beyond transmission
	// time, covering the maximum user RTT.
	RoundSlack float64
	// UnicastInterval is the duration of one unicast retransmission
	// wave, typically one RTT -- much shorter than a multicast round.
	UnicastInterval float64
	// SequentialSend disables the interleaved send order, transmitting
	// each block's shards back to back. The protocol interleaves by
	// default so a burst-loss period cannot claim several shards of one
	// block; this switch exists for the ablation experiment.
	SequentialSend bool
	// Obs, when non-nil, receives per-round metrics and trace events
	// (NACKs per round, RhoAdjusted, SwitchToUnicast). A nil registry
	// costs the simulation hot path only a pointer check.
	Obs *obs.Registry
}

// DefaultConfig returns the paper's default parameters: the shared
// tuning defaults (k=10, rho0=1, numNACK target 20 capped at 100,
// unicast after 2 multicast rounds) plus adaptive rho, deadline 2
// rounds, 10 packets/second.
func DefaultConfig() Config {
	return Config{
		Tuning:          tuning.Default(),
		AdaptiveRho:     true,
		AdaptNumNACK:    false,
		EarlyUnicast:    false,
		DeadlineRounds:  2,
		SendInterval:    0.100,
		RoundSlack:      0.500,
		UnicastInterval: 0.200,
	}
}

func (c Config) validate() error {
	t := c.Tuning
	if t.Degree == 0 {
		// The session never reads Degree (each Message carries its
		// TreeDegree), so don't force callers to set it.
		t.Degree = tuning.Default().Degree
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	if c.SendInterval <= 0 {
		return fmt.Errorf("protocol: SendInterval = %v, want > 0", c.SendInterval)
	}
	if c.AdaptNumNACK && c.DeadlineRounds <= 0 {
		return fmt.Errorf("protocol: AdaptNumNACK requires DeadlineRounds > 0")
	}
	return nil
}

// Message is the transport-level description of one rekey message: its
// ENC packets, their user ranges, and which packet each user needs.
// Build one with BuildMessage.
type Message struct {
	// Part partitions the NumEnc real packets into blocks of K.
	Part blockplan.Partition
	// UserPkt[i] is user i's specific ENC packet index, or -1 if user i
	// needs nothing this interval.
	UserPkt []int
	// FrmID and ToID give each real packet's user-ID range.
	FrmID, ToID []int
	// UserNodeID maps user index to key tree node ID.
	UserNodeID []int
	// EncsPerUser is how many encryptions each user needs (sizes its
	// USR packet).
	EncsPerUser []int
	// MaxKID is field 5 of every ENC packet.
	MaxKID int
	// TreeDegree is the key tree degree (estimation uses it).
	TreeDegree int
}

// NumEnc returns h, the number of real ENC packets in the message.
func (m *Message) NumEnc() int { return m.Part.NumReal }

// BuildMessage assembles the transport descriptor for a batch result and
// its UKA plan, with FEC block size k. The network's user index i is
// identified with res.UserIDs[i].
func BuildMessage(res *keytree.BatchResult, plan *assign.Plan, k, treeDegree int) (*Message, error) {
	part, err := blockplan.NewPartition(len(plan.Packets), k)
	if err != nil {
		return nil, err
	}
	m := &Message{
		Part:        part,
		UserPkt:     make([]int, len(res.UserIDs)),
		FrmID:       make([]int, len(plan.Packets)),
		ToID:        make([]int, len(plan.Packets)),
		UserNodeID:  append([]int(nil), res.UserIDs...),
		EncsPerUser: make([]int, len(res.UserIDs)),
		MaxKID:      res.MaxKID,
		TreeDegree:  treeDegree,
	}
	for i, pp := range plan.Packets {
		m.FrmID[i], m.ToID[i] = pp.FrmID, pp.ToID
	}
	var needs []uint32
	for i, nodeID := range res.UserIDs {
		if pi, ok := plan.UserPacket[nodeID]; ok {
			m.UserPkt[i] = pi
		} else {
			m.UserPkt[i] = -1
		}
		needs = res.AppendUserNeedIDs(needs[:0], nodeID)
		m.EncsPerUser[i] = len(needs)
	}
	return m, nil
}

// Metrics reports one rekey message's transport outcome.
type Metrics struct {
	MsgID         int
	RhoUsed       float64
	NumNACKTarget int
	EncPackets    int // h: real ENC packets
	Blocks        int
	// MulticastSent is h': every multicast packet sent (ENC packets
	// including last-block duplicates, plus all PARITY packets, across
	// all rounds).
	MulticastSent int
	ParitySent    int
	DupSent       int
	Round1NACKs   int
	NACKsPerRound []int
	// MulticastRounds is the number of multicast rounds run.
	MulticastRounds int
	UsrSent         int
	UnicastWaves    int
	// UserRoundHist maps finishing round to user count. Multicast
	// finishers record their round (1-based); unicast finishers record
	// MulticastRounds + wave.
	UserRoundHist  map[int]int
	MissedDeadline int
	// NeededUsers is how many users needed any packet this message.
	NeededUsers int
	AllDone     bool
	// Elapsed is simulated seconds from first send to completion.
	Elapsed float64
}

// BandwidthOverhead is h'/h, the server multicast bandwidth overhead.
func (m *Metrics) BandwidthOverhead() float64 {
	if m.EncPackets == 0 {
		return 0
	}
	return float64(m.MulticastSent) / float64(m.EncPackets)
}

// AvgUserRounds is the mean finishing round over users that needed
// packets.
func (m *Metrics) AvgUserRounds() float64 {
	total, n := 0, 0
	for r, c := range m.UserRoundHist {
		total += r * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// maxUnicastWaves bounds a simulated message's unicast phase.
const maxUnicastWaves = 50

// Session runs rekey messages over one simulated network: a thin
// adapter that feeds an Engine the NACKs of simulated users. The engine
// carries the adaptive state (rho and the NACK target) across messages
// as the key server does.
type Session struct {
	cfg    Config
	eng    *Engine
	net    *netsim.Star
	now    float64
	msgSeq int
}

// NewSession creates a session. The star network's user count fixes the
// group size every message must match.
func NewSession(cfg Config, net *netsim.Star, seed uint64) (*Session, error) {
	eng, err := NewEngine(cfg, seed)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, eng: eng, net: net}, nil
}

// Rho returns the proactivity factor the next message will use.
func (s *Session) Rho() float64 { return s.eng.Rho() }

// Rebind swaps the session's network while carrying the adaptive state
// (rho, the NACK target) across the change. Scenario harnesses use it:
// churn changes the group size every interval, so each rekey message
// runs on a freshly built star sized to the post-batch membership while
// the server-side controllers persist, as they do in a real key server.
// The simulation clock restarts at zero so the new links begin in their
// stationary state.
func (s *Session) Rebind(net *netsim.Star) {
	s.net = net
	s.now = 0
}

// NumNACK returns the current first-round NACK target.
func (s *Session) NumNACK() int { return s.eng.numNACK }

// userState is a simulated user's transport state for one message.
type userState struct {
	pkt         int // specific real ENC packet index; -1 = nothing needed
	block       int
	counts      []uint16 // shards received per block
	est         blockplan.Estimator
	gotSpecific bool
	doneRound   int // 0 = pending; >0 finishing round index
}

func (u *userState) done() bool { return u.pkt < 0 || u.doneRound > 0 }

// recovered reports whether the user can produce its specific packet:
// it received it directly, or holds >= k shards of its block.
func (u *userState) recovered(k int) bool {
	return u.gotSpecific || int(u.counts[u.block]) >= k
}

// Run executes the transport protocol for one rekey message and returns
// its metrics. An empty message (no ENC packets) returns immediately.
func (s *Session) Run(msg *Message) (*Metrics, error) {
	if len(msg.UserPkt) != s.net.N() {
		return nil, fmt.Errorf("protocol: message for %d users on a %d-user network", len(msg.UserPkt), s.net.N())
	}
	if msg.Part.K != s.cfg.K {
		return nil, fmt.Errorf("protocol: message partition uses k=%d, session k=%d", msg.Part.K, s.cfg.K)
	}
	tr := s.eng.Begin(msg.Part, s.msgSeq, maxUnicastWaves, func(ui int) int {
		return 5 + packet.EncEntryLen*msg.EncsPerUser[ui] + udpHeader
	})
	s.msgSeq++
	met := tr.Metrics()
	if msg.NumEnc() == 0 {
		tr.Next()
		return met, nil
	}

	users := make([]userState, len(msg.UserPkt))
	for i := range users {
		users[i] = userState{pkt: msg.UserPkt[i], est: blockplan.NewEstimator()}
		if msg.UserPkt[i] >= 0 {
			users[i].block, _ = msg.Part.Slot(msg.UserPkt[i])
			users[i].counts = make([]uint16, msg.Part.NumBlocks())
			met.NeededUsers++
		}
	}
	start := s.now
	for st := tr.Next(); st.Kind != StepDone; st = tr.Next() {
		if st.Kind == StepMulticast {
			times := make([]float64, len(st.Refs))
			for i := range times {
				times[i] = s.now + float64(i)*s.cfg.SendInterval
			}
			rd := s.net.MulticastRound(times)
			s.now += float64(len(st.Refs))*s.cfg.SendInterval + s.cfg.RoundSlack
			s.deliver(msg, users, st, rd, tr)
			continue
		}
		// A unicast wave: a user is done once any of its duplicates
		// arrives; duplicates go out back to back, and distinct users'
		// sends share the wave window.
		for _, ui := range st.Users {
			got := false
			for j := 0; j < st.Dups; j++ {
				if s.net.Unicast(ui, s.now+float64(j)*0.001) {
					got = true
				}
			}
			if got {
				users[ui].doneRound = met.MulticastRounds + st.Round
				met.UserRoundHist[users[ui].doneRound]++
			} else {
				tr.NACK(ui, nil)
			}
		}
		s.now += s.cfg.UnicastInterval
	}
	met.Elapsed = s.now - start
	// Idle gap between rekey messages keeps link processes realistic.
	s.now += s.cfg.RoundSlack
	return met, nil
}

// deliver hands one multicast round's deliveries to the pending users
// (in parallel), then feeds the transfer each still-pending user's NACK
// in user order.
func (s *Session) deliver(msg *Message, users []userState, st Step, rd *netsim.RoundDelivery, tr *Transfer) {
	k := s.cfg.K
	workers := tuning.ResolveWorkers(s.cfg.Workers)
	var wg sync.WaitGroup
	chunk := (len(users) + workers - 1) / workers
	for lo := 0; lo < len(users); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for ui := lo; ui < hi; ui++ {
				u := &users[ui]
				if u.done() {
					// Done users still consume the round so their link
					// processes advance deterministically.
					rd.Received(ui)
					continue
				}
				for _, idx := range rd.Received(ui) {
					r := st.Refs[idx]
					u.counts[r.Block]++
					if r.IsParity(k) {
						continue
					}
					real := msg.Part.RealIndex(r.Block, r.Shard)
					if real == u.pkt {
						u.gotSpecific = true
					}
					if !msg.Part.IsDuplicate(r.Block, r.Shard) {
						u.est.Observe(msg.UserNodeID[ui], blockplan.ENCHeader{
							BlockID: r.Block, Seq: r.Shard,
							FrmID: msg.FrmID[real], ToID: msg.ToID[real],
							MaxKID: msg.MaxKID,
						}, k, msg.TreeDegree)
					}
				}
				if u.recovered(k) {
					u.doneRound = st.Round
				}
			}
		}(lo, min(lo+chunk, len(users)))
	}
	wg.Wait()

	met := tr.Metrics()
	var reqs []Request
	for ui := range users {
		u := &users[ui]
		if u.doneRound == st.Round {
			met.UserRoundHist[st.Round]++
		}
		if u.done() {
			continue
		}
		// NACK: request parity for each block in the estimated range
		// still short of k.
		reqs = reqs[:0]
		for b := max(u.est.Low, 0); b <= min(u.est.High, len(u.counts)-1); b++ {
			if a := k - int(u.counts[b]); a > 0 {
				reqs = append(reqs, Request{Block: b, Count: a})
			}
		}
		if len(reqs) == 0 {
			// The estimated range is fully stocked yet the user could
			// not decode its packet: only possible when the range
			// excludes the true block, which the estimator forbids.
			// Guard regardless.
			reqs = append(reqs, Request{Block: u.block, Count: 1})
		}
		tr.NACK(ui, reqs)
	}
}
