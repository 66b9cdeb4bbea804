// Package decay implements the randomized broadcasting algorithm of
// Bar-Yehuda, Goldreich and Itai (reference [3] of the paper), the baseline
// the paper's Section 2 improves on.
//
// Time is divided into stages of k = ⌈log(R+1)⌉ + 1 steps. In step l of a
// stage (l = 0, ..., k-1) every participating node transmits the source
// message with probability 2^{-l} — the classic Decay ladder. A node starts
// participating at the first stage that begins after it was informed; the
// source participates from stage 1. Expected broadcast time is
// O(D log n + log² n).
package decay

import (
	"adhocradio/internal/radio"
	"adhocradio/internal/rng"
	"adhocradio/internal/sequences"
)

// Protocol is the BGI Decay broadcast. The zero value is ready to use.
type Protocol struct {
	// StageLength overrides the number of steps per stage (0 selects the
	// standard ⌈log(R+1)⌉+1). Experiment E8 uses short stages to show why
	// naive truncation of Decay fails.
	StageLength int
}

var _ radio.CoinProtocol = (*Protocol)(nil)

// New returns the standard BGI Decay protocol.
func New() *Protocol { return &Protocol{} }

// Name implements radio.Protocol.
func (p *Protocol) Name() string { return "bgi-decay" }

// stages returns the run's ladder under cfg.
func (p *Protocol) stages(cfg radio.Config) ladder {
	if p.StageLength > 0 {
		return ladder(p.StageLength)
	}
	return ladder(sequences.CeilLog2(cfg.LabelBound()+1) + 1)
}

// NewNode implements radio.Protocol.
func (p *Protocol) NewNode(label int, cfg radio.Config) radio.NodeProgram {
	n := &node{
		stages:     p.stages(cfg),
		src:        rng.NewStream(cfg.Seed, uint64(label)),
		informedAt: -1,
	}
	if label == 0 {
		n.informedAt = 0 // the source holds the message from step 0
	}
	return n
}

// CoinSchedule implements radio.CoinProtocol: Decay is oblivious, so the
// engine can run it from the shared ladder alone.
func (p *Protocol) CoinSchedule(cfg radio.Config) func(t int) radio.CoinStep {
	return p.stages(cfg).at
}

// ladder is the Decay schedule with stages of the given length, the first
// starting at step 1.
type ladder int

// at resolves step t: position l of a stage transmits with probability
// 2^-l, and a node participates from the first stage that starts after it
// was informed (the source, informed at step 0, from stage 1). This is the
// one definition the node programs and the engine both read.
func (k ladder) at(t int) radio.CoinStep {
	pos := (t - 1) % int(k)
	return radio.CoinStep{Exp: pos, Start: t - pos}
}

type node struct {
	stages     ladder
	src        *rng.Source
	informedAt int // -1 until informed; 0 for the source
}

// Act implements radio.NodeProgram. Every transmission carries the source
// message and nothing else, so the payload is nil.
func (n *node) Act(t int) (bool, any) {
	if n.informedAt < 0 {
		// Defensive: the simulator only drives informed nodes.
		return false, nil
	}
	return n.stages.at(t).Fires(n.informedAt, n.src), nil
}

// Deliver implements radio.NodeProgram.
func (n *node) Deliver(t int, msg radio.Message) {
	if n.informedAt < 0 {
		n.informedAt = t
	}
}
