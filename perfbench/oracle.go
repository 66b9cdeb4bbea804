package main

import (
	"errors"
	"fmt"

	"adhocradio"
	"adhocradio/internal/radio"
)

// Oracle sampling limits. The naive reference simulator scans every node
// and arc each step, so only trials under oracleCap node-or-arc visits are
// eligible; oracleSample of them are re-run per run, untimed.
const (
	oracleSample = 6
	oracleCap    = 2e8
)

// checkOracle re-runs a seeded sample of the round's trials through the
// reference simulator (radio.RunReferenceObserved, the counting form of
// RunReferenceWithFaults) and compares every Result field and engine
// counter against what the timed run produced. Adversary trials compare
// the replay's Result against the oracle on the constructed network.
func checkOracle(trials []trial, outs []outcome, seed uint64) error {
	perm := adhocradio.NewRand(seed ^ 0x6f7261636c65).Perm(len(trials))
	picked := 0
	for _, i := range perm {
		if picked == oracleSample {
			break
		}
		o := outs[i]
		if float64(o.stepsSimulated+1)*float64(o.n+o.arcs) > oracleCap {
			continue
		}
		picked++
		if err := oracleOne(&trials[i], o); err != nil {
			return fmt.Errorf("oracle check of trial %d (%s): %w", i, trials[i].name, err)
		}
	}
	if picked == 0 {
		return errors.New("oracle check: no trial is cheap enough to re-run")
	}
	return nil
}

func oracleOne(tr *trial, got outcome) error {
	if a := tr.adversary; a != nil {
		c, err := adhocradio.BuildDirectedAdversarialNetwork(a.victim, a.params)
		if err != nil {
			return err
		}
		n := c.G.N()
		res, err := radio.RunReferenceWithFaults(c.G, a.victim, adhocradio.Config{N: n, R: n - 1}, 0, nil)
		want, err := resultOutcome(res, err)
		if err != nil {
			return err
		}
		want.n, want.arcs, want.delay, want.removed = got.n, got.arcs, c.Delay(), c.Removed
		return compareOutcome(want, got)
	}
	g := tr.topo
	if g == nil {
		var err error
		if g, err = tr.build(); err != nil {
			return err
		}
	}
	cfg := tr.cfg
	cfg.N = g.N()
	res, c, err := radio.RunReferenceObserved(g, tr.proto(), cfg, tr.opt.MaxSteps, tr.opt.Fault)
	want, err := resultOutcome(res, err)
	if err != nil {
		return err
	}
	want.counts = counts{c.Steps, c.Transmissions, c.Receptions, c.Collisions, c.SilentSteps,
		c.LinksDropped, c.JamNoise, c.CrashSkips, c.SleepSkips}
	want.built, want.n, want.arcs = got.built, g.N(), g.Compile().Arcs()
	return compareOutcome(want, got)
}

func compareOutcome(want, got outcome) error {
	if want != got {
		return fmt.Errorf("engine %+v, reference %+v", got, want)
	}
	return nil
}
