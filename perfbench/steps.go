package main

import (
	"fmt"
	"strings"

	"adhocradio"
)

// runStepsClean: topologies are built once in set-up, then many fault-free
// KP and Decay trials run on the reused Runners. Engine steps dominate;
// graph construction is bypassed (it is set-up work only).
func runStepsClean(cfg runConfig) (*report, error) {
	warm := warmWhere(func(name string) bool { return !strings.HasPrefix(name, "layered n=2048 ") })
	return runBatch(cfg, batch{setup: stepsCleanSetup, warm: warm})
}

func stepsCleanSetup(t *tracer, phase int, seed uint64) (func(int) []trial, tally, error) {
	src := adhocradio.NewRand(seed)
	// seeds is how many protocol seeds a (topology, protocol) pair runs per
	// round, 30 trials in all. By cost the trials form clusters: star chain
	// (4), complete (8), layered n = 1024 Decay (6) and KP (4), layered
	// n = 2048 Decay (2) and KP (6). So p50 (rank 15) falls in the middle
	// of the n = 1024 Decay cluster and p90 (rank 27) in the middle of the
	// n = 2048 KP one, never on a gap between clusters.
	type run struct {
		proto string
		seeds int
	}
	type topo struct {
		name  string
		runs  []run
		build func() (*adhocradio.Graph, error)
	}
	layered := func(n, d int, gseed uint64) func() (*adhocradio.Graph, error) {
		return func() (*adhocradio.Graph, error) {
			return adhocradio.RandomLayered(n, d, 0.3, adhocradio.NewRand(gseed))
		}
	}
	topos := []topo{
		// E1 shape: random layered, D = n/16.
		{"layered n=2048 D=128", []run{{"kp", 6}, {"decay", 2}}, layered(2048, 128, src.Uint64())},
		{"layered n=1024 D=64", []run{{"kp", 4}, {"decay", 6}}, layered(1024, 64, src.Uint64())},
		// Dense complete layered: the bit-parallel tally is eligible here.
		{"complete n=1024 D=4", []run{{"kp", 4}, {"decay", 4}}, func() (*adhocradio.Graph, error) {
			return adhocradio.UniformCompleteLayered(1024, 4)
		}},
		// E8 shape: wide fan-in fronts, KP with a large assumed radius.
		{"starchain D=2 w=256", []run{{"kp-known32", 2}, {"decay", 2}}, func() (*adhocradio.Graph, error) {
			return adhocradio.StarChain(2, 256), nil
		}},
	}
	var tl tally
	graphs := make([]*adhocradio.Graph, len(topos))
	for i, tp := range topos {
		s := t.begin("graph.build", phase, -1)
		g, err := tp.build()
		t.end(s)
		if err != nil {
			return nil, tl, fmt.Errorf("%s: %w", tp.name, err)
		}
		s = t.begin("graph.compile", phase, -1)
		arcs := compile(g)
		t.end(s)
		tl.graphBuilds++
		tl.arcs += int64(arcs)
		graphs[i] = g
	}
	round := func(r int) []trial {
		rsrc := roundSrc(seed, r)
		var ts []trial
		for i, tp := range topos {
			for _, ru := range tp.runs {
				for k := 0; k < ru.seeds; k++ {
					ts = append(ts, trial{
						name:  fmt.Sprintf("%s %s #%d", tp.name, ru.proto, k),
						class: "clean",
						topo:  graphs[i],
						proto: protocolByName(ru.proto),
						cfg:   adhocradio.Config{Seed: rsrc.Uint64()},
					})
				}
			}
		}
		return ts
	}
	return round, tl, nil
}

// runStepsFaulty: E15–E17 shapes on fresh GNPConnected(512, 4–6/n) graphs
// under crash, sleep, link-loss and jam plans, budget 100·n. Censoring at
// the budget is a normal outcome; the fault layer and the faulty tally do
// the work.
func runStepsFaulty(cfg runConfig) (*report, error) {
	// Everything but the two trials that always run to the budget.
	warm := warmWhere(func(name string) bool {
		return !(strings.Contains(name, " crash ") && strings.HasSuffix(name, " decay"))
	})
	return runBatch(cfg, batch{setup: stepsFaultySetup, warm: warm})
}

const faultyN = 512

func stepsFaultySetup(_ *tracer, _ int, seed uint64) (func(int) []trial, tally, error) {
	return func(r int) []trial { return stepsFaultyTrials(roundSrc(seed, r)) }, tally{}, nil
}

func stepsFaultyTrials(src *adhocradio.Rand) []trial {
	type point struct {
		name   string
		class  string
		degree float64 // expected degree of the GNP graph
		protos []string
		plan   func(fseed uint64, jsrc *adhocradio.Rand) *adhocradio.FaultPlan
	}
	crash := func(frac float64) func(uint64, *adhocradio.Rand) *adhocradio.FaultPlan {
		return func(fs uint64, _ *adhocradio.Rand) *adhocradio.FaultPlan {
			return &adhocradio.FaultPlan{Seed: fs, CrashFrac: frac, CrashWindow: faultyN}
		}
	}
	loss := func(p float64) func(uint64, *adhocradio.Rand) *adhocradio.FaultPlan {
		return func(fs uint64, _ *adhocradio.Rand) *adhocradio.FaultPlan {
			return &adhocradio.FaultPlan{Seed: fs, LinkLoss: p}
		}
	}
	jam := func(p float64) func(uint64, *adhocradio.Rand) *adhocradio.FaultPlan {
		return func(fs uint64, jsrc *adhocradio.Rand) *adhocradio.FaultPlan {
			// n/16 jammer devices on distinct random non-source hosts (E16).
			hosts := jsrc.Sample(faultyN-1, faultyN/16)
			for i := range hosts {
				hosts[i]++
			}
			return &adhocradio.FaultPlan{Seed: fs, Jammers: hosts, JamProb: p}
		}
	}
	sleep := func(fs uint64, _ *adhocradio.Rand) *adhocradio.FaultPlan {
		return &adhocradio.FaultPlan{Seed: fs, SleepFrac: 0.3, SleepPeriod: 8, SleepAwake: 4}
	}
	// Three cost clusters, in fixed proportions so the percentiles land
	// inside a cluster whatever the seed: Decay under crash always runs to
	// the budget (the top eighth, which holds p90); the deterministic
	// protocols stall under faults and also run to the budget, but on few
	// transmitters; KP and Decay finish quickly under arc faults and sleep
	// (the majority, which holds p50). Heaviest first.
	points := []point{
		{"crash 0.2", "node_faults", 6, []string{"decay", "dfs"}, crash(0.2)},
		{"crash 0.3", "node_faults", 6, []string{"decay"}, crash(0.3)},
		{"jam 0.8", "arc_faults", 4, []string{"ss", "kp"}, jam(0.8)},
		{"jam 0.4", "arc_faults", 4, []string{"kp", "decay"}, jam(0.4)},
		{"loss 0.3", "arc_faults", 4, []string{"ss", "kp", "decay"}, loss(0.3)},
		{"loss 0.1", "arc_faults", 4, []string{"kp", "decay"}, loss(0.1)},
		{"sleep 0.3", "node_faults", 6, []string{"dfs", "kp", "decay"}, sleep},
	}
	var ts []trial
	for _, pt := range points {
		for _, p := range pt.protos {
			gseed := src.Uint64()
			deg := pt.degree
			ts = append(ts, trial{
				name:  fmt.Sprintf("gnp n=%d %s %s", faultyN, pt.name, p),
				class: pt.class,
				build: func() (*adhocradio.Graph, error) {
					return adhocradio.GNPConnected(faultyN, deg/faultyN, adhocradio.NewRand(gseed)), nil
				},
				proto: protocolByName(p),
				cfg:   adhocradio.Config{Seed: src.Uint64()},
				opt: adhocradio.Options{
					MaxSteps: 100 * faultyN,
					Fault:    pt.plan(src.Uint64(), adhocradio.NewRand(src.Uint64())),
				},
			})
		}
	}
	return ts
}
