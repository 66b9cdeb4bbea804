package main

import (
	"errors"
	"fmt"
	"strings"

	"adhocradio"
)

// runConstruct: every trial builds a fresh network and runs one short
// broadcast on it (E2 shape: uniform complete layered networks, KP and
// Decay each), plus E12-shaped trials that build and replay the Section 3
// directed adversarial network. Graph construction dominates.
func runConstruct(cfg runConfig) (*report, error) {
	warm := warmWhere(func(name string) bool {
		return strings.HasPrefix(name, "complete n=256 ") || strings.HasPrefix(name, "complete n=512 ") ||
			strings.HasPrefix(name, "complete n=1024 ")
	})
	return runBatch(cfg, batch{setup: constructSetup, warm: warm, collect: true})
}

func constructSetup(_ *tracer, _ int, seed uint64) (func(int) []trial, tally, error) {
	return func(r int) []trial { return constructTrials(roundSrc(seed, r)) }, tally{}, nil
}

func constructTrials(src *adhocradio.Rand) []trial {
	var ts []trial
	// Heaviest first: the pool dispatches in index order, so the long
	// trials start early and the round's tail stays short.
	for _, nd := range [][2]int{{1024, 16}, {512, 8}} {
		n, d := nd[0], nd[1]
		ts = append(ts, trial{
			name:  fmt.Sprintf("adversary n=%d D=%d", n, d),
			class: "lowerbound",
			adversary: &adversaryTrial{
				victim: adhocradio.NewObliviousDecay(src.Uint64()),
				params: adhocradio.DirectedAdversaryParams{N: n, D: d},
			},
		})
	}
	// By cost the trials form three groups of 18, 12 and 18 per round:
	// networks of n >= 1024, n = 512 with D = 2 and the adversaries above;
	// n = 512 D = 4 in the middle, six seeds per protocol; n = 512 D = 8 and
	// n = 256 below. p50 (rank 24 of 48) then falls in the middle of the
	// n = 512 D = 4 block of identical shapes, never on a gap between two
	// shapes. p90 (rank 44) falls among the n = 2048 D = 2 networks and the
	// n = 512 adversary, which cost about the same.
	type shape struct{ n, d, seeds int }
	shapes := []shape{{4096, 8, 1}}
	for _, n := range []int{2048, 1024} {
		for _, d := range []int{2, 4, 8} {
			shapes = append(shapes, shape{n, d, 1})
		}
	}
	shapes = append(shapes, shape{512, 2, 1}, shape{512, 4, 6}, shape{512, 8, 3},
		shape{256, 2, 2}, shape{256, 4, 2}, shape{256, 8, 2})
	for _, sh := range shapes {
		n, d := sh.n, sh.d
		for k := 0; k < sh.seeds; k++ {
			for _, p := range []string{"kp", "decay"} {
				ts = append(ts, trial{
					name:  fmt.Sprintf("complete n=%d D=%d %s #%d", n, d, p, k),
					class: "clean",
					build: func() (*adhocradio.Graph, error) { return adhocradio.UniformCompleteLayered(n, d) },
					proto: protocolByName(p),
					cfg:   adhocradio.Config{Seed: src.Uint64()},
				})
			}
		}
	}
	return ts
}

// warmWhere warms every engine on the warm-up set's trials whose name
// keep accepts: enough work that set-up is not a few milliseconds a stall
// of the host could double.
func warmWhere(keep func(name string) bool) func([]trial) ([]int, error) {
	return func(ts []trial) ([]int, error) {
		var idx []int
		for i := range ts {
			if keep(ts[i].name) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return nil, errors.New("no warm-up trial selected")
		}
		return idx, nil
	}
}

// protocolByName returns a constructor for a fresh protocol instance:
// trials construct their protocol inside the timed core.setup span.
func protocolByName(name string) func() adhocradio.Protocol {
	switch name {
	case "kp":
		return func() adhocradio.Protocol { return adhocradio.NewOptimalRandomized() }
	case "kp-known32":
		return func() adhocradio.Protocol {
			return adhocradio.NewOptimalRandomizedWithParams(adhocradio.RandomizedParams{KnownRadius: 32})
		}
	case "decay":
		return func() adhocradio.Protocol { return adhocradio.NewDecay() }
	case "dfs":
		return func() adhocradio.Protocol { return adhocradio.NewDFSNeighborhood() }
	case "ss":
		return func() adhocradio.Protocol { return adhocradio.NewSelectAndSend() }
	}
	panic("perfbench: unknown protocol " + name) // the trial tables name only the cases above
}
