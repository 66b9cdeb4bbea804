package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"adhocradio"
	"adhocradio/internal/experiment/pool"
)

// trial is one unit of batch work: build (or reuse) a network, set the
// protocol up, run one broadcast. A trial with an adversary instead builds
// and replays a Section 3 directed adversarial network.
type trial struct {
	name  string
	class string // "clean", "node_faults", "arc_faults" or "lowerbound"
	// build makes a fresh network per execution; nil when topo is set
	// (a topology built once during set-up and shared by every round).
	build func() (*adhocradio.Graph, error)
	topo  *adhocradio.Graph
	proto func() adhocradio.Protocol
	cfg   adhocradio.Config
	opt   adhocradio.Options

	adversary *adversaryTrial
}

type adversaryTrial struct {
	victim adhocradio.DeterministicProtocol
	params adhocradio.DirectedAdversaryParams
}

// engine is the worker's reusable simulation state.
type engine struct {
	runner *adhocradio.Runner
	res    adhocradio.Result
}

// counts mirrors the engine's deterministic counter ledger
// (Runner.Counters) so windows can be stored and summed.
type counts struct {
	Steps, Transmissions, Receptions, Collisions, SilentSteps int64
	LinksDropped, JamNoise, CrashSkips, SleepSkips            int64
}

func countsOf(r *adhocradio.Runner) counts {
	c := r.Counters()
	return counts{c.Steps, c.Transmissions, c.Receptions, c.Collisions, c.SilentSteps,
		c.LinksDropped, c.JamNoise, c.CrashSkips, c.SleepSkips}
}

func (c counts) minus(o counts) counts {
	return counts{c.Steps - o.Steps, c.Transmissions - o.Transmissions, c.Receptions - o.Receptions,
		c.Collisions - o.Collisions, c.SilentSteps - o.SilentSteps, c.LinksDropped - o.LinksDropped,
		c.JamNoise - o.JamNoise, c.CrashSkips - o.CrashSkips, c.SleepSkips - o.SleepSkips}
}

func (c *counts) add(o counts) {
	c.Steps += o.Steps
	c.Transmissions += o.Transmissions
	c.Receptions += o.Receptions
	c.Collisions += o.Collisions
	c.SilentSteps += o.SilentSteps
	c.LinksDropped += o.LinksDropped
	c.JamNoise += o.JamNoise
	c.CrashSkips += o.CrashSkips
	c.SleepSkips += o.SleepSkips
}

// outcome is everything a trial produced that the digest and the oracle
// check cover.
type outcome struct {
	completed      bool
	limited        bool // stopped by the step budget (censored)
	broadcastTime  int
	stepsSimulated int
	informedHash   uint64
	transmissions  int64
	receptions     int64
	collisions     int64
	counts         counts // engine counter window of the run
	// built is set when the trial built its own network; arcs counts the
	// directed arcs of the network it ran on.
	built bool
	n     int
	arcs  int
	// Adversary trials: the construction's delay and discarded candidates.
	delay, removed int
}

func hashInts(xs []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		_, _ = h.Write(b[:]) // hash.Hash.Write never fails
	}
	return h.Sum64()
}

func resultOutcome(res *adhocradio.Result, err error) (outcome, error) {
	limited := errors.Is(err, adhocradio.ErrBudgetExhausted)
	if err != nil && !limited {
		return outcome{}, err
	}
	return outcome{
		completed:      res.Completed,
		limited:        limited,
		broadcastTime:  res.BroadcastTime,
		stepsSimulated: res.StepsSimulated,
		informedHash:   hashInts(res.InformedAt),
		transmissions:  res.Transmissions,
		receptions:     res.Receptions,
		collisions:     res.Collisions,
	}, nil
}

// validator is the protocol set-up hook (the KP schedule build). Protocols
// without one set up lazily inside the run.
type validator interface {
	Validate(adhocradio.Config) error
}

// compile builds the network's compiled adjacency the engine runs on: the
// CSR always, and the bitmap rows when the graph is dense enough for the
// engine's bit-parallel tally (the engine's own gate: 32·arcs ≥ n²).
// Doing it here keeps compile time out of radio.run.
func compile(g *adhocradio.Graph) int {
	arcs := g.Compile().Arcs()
	if int64(arcs)*32 >= int64(g.N())*int64(g.N()) {
		g.CompileBitmap()
	}
	return arcs
}

// exec runs the trial once on eng, recording layer spans under parent.
func (tr *trial) exec(t *tracer, parent, idx int, eng *engine) (outcome, error) {
	ts := t.begin("trial", parent, idx)
	defer t.end(ts)
	if tr.adversary != nil {
		return tr.adversary.exec(t, ts, idx)
	}
	g := tr.topo
	var built bool
	if g == nil {
		s := t.begin("graph.build", ts, idx)
		var err error
		g, err = tr.build()
		t.end(s)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: build: %w", tr.name, err)
		}
		s = t.begin("graph.compile", ts, idx)
		compile(g)
		t.end(s)
		built = true
	}
	s := t.begin("core.setup", ts, idx)
	p := tr.proto()
	cfg := tr.cfg
	cfg.N = g.N()
	if v, ok := p.(validator); ok {
		if err := v.Validate(cfg); err != nil {
			t.end(s)
			return outcome{}, fmt.Errorf("%s: protocol set-up: %w", tr.name, err)
		}
	}
	t.end(s)
	before := countsOf(eng.runner)
	s = t.begin("radio.run", ts, idx)
	err := eng.runner.RunInto(&eng.res, g, p, cfg, tr.opt)
	t.end(s)
	o, err := resultOutcome(&eng.res, err)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: run: %w", tr.name, err)
	}
	o.counts = countsOf(eng.runner).minus(before)
	o.built, o.n, o.arcs = built, g.N(), g.Compile().Arcs()
	return o, nil
}

func (a *adversaryTrial) exec(t *tracer, parent, idx int) (outcome, error) {
	s := t.begin("lowerbound.build", parent, idx)
	c, err := adhocradio.BuildDirectedAdversarialNetwork(a.victim, a.params)
	t.end(s)
	if err != nil {
		return outcome{}, fmt.Errorf("adversary n=%d: build: %w", a.params.N, err)
	}
	s = t.begin("lowerbound.verify", parent, idx)
	res, err := adhocradio.VerifyDirectedAdversarialNetwork(a.victim, c, 0)
	t.end(s)
	if err != nil {
		return outcome{}, fmt.Errorf("adversary n=%d: verify: %w", a.params.N, err)
	}
	o, err := resultOutcome(res, nil)
	if err != nil {
		return outcome{}, err
	}
	o.n, o.arcs = c.G.N(), c.G.Compile().Arcs()
	o.delay, o.removed = c.Delay(), c.Removed
	return o, nil
}

// tally is the per-layer work of one phase, summed from its outcomes.
type tally struct {
	graphBuilds, arcs, lbBuilds, coreSetups, radioRuns, censored int64
	stepsByClass                                                 map[string]int64
	counts                                                       counts
}

func (t *tally) add(tr *trial, o outcome) {
	if t.stepsByClass == nil {
		t.stepsByClass = map[string]int64{}
	}
	if tr.adversary != nil {
		t.lbBuilds++
		return
	}
	if o.built {
		t.graphBuilds++
		t.arcs += int64(o.arcs)
	}
	t.coreSetups++
	t.radioRuns++
	if o.limited {
		t.censored++
	}
	t.stepsByClass[tr.class] += int64(o.stepsSimulated)
	t.counts.add(o.counts)
}

func (t *tally) merge(o tally) {
	t.graphBuilds += o.graphBuilds
	t.arcs += o.arcs
	t.lbBuilds += o.lbBuilds
	t.coreSetups += o.coreSetups
	t.radioRuns += o.radioRuns
	t.censored += o.censored
	if t.stepsByClass == nil {
		t.stepsByClass = map[string]int64{}
	}
	for k, v := range o.stepsByClass {
		t.stepsByClass[k] += v
	}
	t.counts.add(o.counts)
}

// round is one pass over the workload's trial shapes.
type round struct {
	trials   []trial
	wall     time.Duration
	trialDur []time.Duration // per trial: process CPU time
	busy     time.Duration   // wall time spent inside trials
	outs     []outcome
	traced   bool
}

// runTrials executes trials on the worker pool inside one phase span.
func runTrials(ctx context.Context, t *tracer, phase string, trials []trial, eng *engine, collect bool) (*round, error) {
	ph := t.begin(phase, -1, -1)
	defer t.end(ph)
	r := &round{
		trials:   trials,
		trialDur: make([]time.Duration, len(trials)),
		outs:     make([]outcome, len(trials)),
		traced:   t != nil,
	}
	start := time.Now()
	err := pool.Run(ctx, workers, len(trials), func(_ context.Context, i int) error {
		if collect {
			debug.FreeOSMemory()
		}
		t0, c0 := time.Now(), processCPU()
		o, err := trials[i].exec(t, ph, i, eng)
		r.trialDur[i], r.outs[i] = processCPU()-c0, o
		r.busy += time.Since(t0)
		return err
	})
	r.wall = time.Since(start)
	return r, err
}

// digest hashes every outcome of a round in trial order.
func digest(outs []outcome) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%v|%v|%d|%d|%x|%d|%d|%d|%+v|%d|%d|%d|%d;",
			o.completed, o.limited, o.broadcastTime, o.stepsSimulated, o.informedHash,
			o.transmissions, o.receptions, o.collisions, o.counts, o.n, o.arcs, o.delay, o.removed)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// batch describes a batch workload. setup builds what every round shares
// and returns the round generator: round(r) is round r's trial set, the
// workload's fixed trial shapes on seeds drawn for that round (fresh seeds
// per round average the input's cost over the run, so runs with different
// --seed agree). round(-1) is the warm-up set, drawn from a fixed seed so
// set-up does the same work whatever --seed is: warm names the trials of
// it that the engine runs once at the end of set-up, so engine scratch is
// grown before timing. setup also returns the tally of its own work.
type batch struct {
	setup func(t *tracer, phase int, seed uint64) (func(r int) []trial, tally, error)
	warm  func(trials []trial) ([]int, error)
	// collect runs an untimed collection that also returns freed memory to
	// the OS before every trial, warm-up trials included, so each trial pays
	// for its own heap: the collections and page faults of the memory it
	// allocates, not those left behind by the trial before it.
	collect bool
}

// warmSeed seeds the warm-up set.
const warmSeed = 0x5eed

// roundSrc is the source of round r's trial seeds; the warm-up set
// (r = -1) ignores seed.
func roundSrc(seed uint64, r int) *adhocradio.Rand {
	if r < 0 {
		return adhocradio.NewRand(warmSeed)
	}
	return adhocradio.NewRand(seed*1_000_003 + uint64(r+1))
}

// processCPU returns the process's CPU time, all threads (getrusage
// RUSAGE_SELF). On a virtual machine the kernel leaves time the hypervisor
// stole out of it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage(RUSAGE_SELF): " + err.Error()) // Linux always supports it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runBatch is the measurement loop shared by the batch workloads. Batch
// times are process CPU time: one trial or set-up runs at a time, so the
// garbage collector's background work is charged to the trial that caused
// it. The host is a shared virtual machine whose steal time made
// wall-clock rounds of identical work differ by 20 % between runs; on an
// idle host a round's wall time is close to its CPU time, less the GC work
// that ran beside it and plus the dispatch gaps pool.busy_ratio reports.
func runBatch(cfg runConfig, b batch) (*report, error) {
	ctx := context.Background()
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	eng := &engine{runner: adhocradio.NewRunner()}

	var gen func(int) []trial
	var setupDur []float64
	var setupTally tally
	// Every set-up and round starts from a collected heap, so one's garbage
	// charges neither its collection nor its peak RSS to the next. A
	// set-up first drops the previous set-up's topologies.
	setUp := func() error {
		gen = nil
		runtime.GC()
		c0 := processCPU()
		ph := t.begin("setup", -1, -1)
		g, tl, err := b.setup(t, ph, cfg.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts := g(-1)
		warm, err := b.warm(ts)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		var collecting time.Duration // untimed: the collections before warm-up trials
		for _, w := range warm {
			if b.collect {
				c := processCPU()
				debug.FreeOSMemory()
				collecting += processCPU() - c
			}
			o, err := ts[w].exec(t, ph, w, eng)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			tl.add(&ts[w], o)
		}
		t.end(ph)
		setupDur = append(setupDur, (processCPU() - c0 - collecting).Seconds())
		setupTally.merge(tl)
		gen = g
		return nil
	}
	if err := setUp(); err != nil {
		return nil, err
	}

	var rounds []*round
	// Rounds run while the next one is expected to end within the
	// measurement time (at least two, so a traced run has one of each).
	// The other set-ups are spread over the measurement time, so a slow
	// stretch of the host moves one of them, not the median.
	start := time.Now()
	for len(rounds) < 2 || time.Since(start)*time.Duration(len(rounds)+1)/time.Duration(len(rounds)) <= cfg.measure {
		if len(setupDur) < setups && time.Since(start) >= cfg.measure*time.Duration(len(setupDur))/setups {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		// A traced run alternates untraced and traced rounds, so the
		// tracing overhead is measured within one process.
		rt := (*tracer)(nil)
		if len(rounds)%2 == 1 {
			rt = t
		}
		runtime.GC()
		r, err := runTrials(ctx, rt, "round", gen(len(rounds)), eng, b.collect)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	for len(setupDur) < setups {
		if err := setUp(); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Rounds 0 and 1 run in every run, traced or not: their outcomes are
	// the digest and their tallies the deterministic counters.
	rep := &report{digest: digest(append(append([]outcome(nil), rounds[0].outs...), rounds[1].outs...))}
	for _, r := range rounds {
		rep.attempted += int64(len(r.trials))
	}
	rep.mismatch = checkOracle(rounds[0].trials, rounds[0].outs, cfg.seed)
	rep.endToEnd = batchEndToEnd(rounds, setupDur, rss)
	if cfg.traced {
		rep.spans = t.snapshot()
		rep.perLayer, rep.notes = batchPerLayer(rep.spans, rounds, setupTally)
	}
	return rep, nil
}

// batchEndToEnd derives the end-to-end metrics from the untraced rounds.
// A stall of the host can land on any round, so the round's time is read
// off the median round: each trial shape's median time across rounds,
// summed (one worker runs a round's trials back to back). Trial
// percentiles pool every trial of every round.
func batchEndToEnd(rounds []*round, setupDur []float64, rss float64) map[string]metric {
	var plain []*round
	var durs []float64
	for _, r := range rounds {
		if r.traced {
			continue
		}
		plain = append(plain, r)
		for _, d := range r.trialDur {
			durs = append(durs, ms(d))
		}
	}
	n := len(plain[0].trialDur)
	wall := 0.0 // ms
	for i := 0; i < n; i++ {
		var di []float64
		for _, r := range plain {
			di = append(di, ms(r.trialDur[i]))
		}
		wall += median(di)
	}
	return map[string]metric{
		"setup_s":      {median(setupDur), "s"},
		"wall_s":       {wall / 1e3, "s"},
		"trial_p50_ms": {percentile(durs, 50), "ms"},
		"trial_p90_ms": {percentile(durs, 90), "ms"},
		"peak_rss_mb":  {rss, "MB"},
	}
}

func batchPerLayer(spans []span, rounds []*round, st tally) (map[string]metric, []string) {
	var tracedWalls, plainWalls []float64
	var busy, avail float64
	var tt, ct tally // traced rounds; rounds 0 and 1
	for i, r := range rounds {
		for j, o := range r.outs {
			if r.traced {
				tt.add(&r.trials[j], o)
			}
			if i < 2 {
				ct.add(&r.trials[j], o)
			}
		}
		if r.traced {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
			continue
		}
		plainWalls = append(plainWalls, r.wall.Seconds())
		busy += r.busy.Seconds()
		avail += r.wall.Seconds() * workers
	}
	nr := len(tracedWalls)
	lt := aggregate(spans)
	per := func(name string) float64 { return lt.perUnit(name, setups, nr) }
	// Counts are per set-up plus per round, the round being the mean of
	// rounds 0 and 1: deterministic for a seed.
	perCount := func(s, r int64) float64 { return float64(s)/setups + float64(r)/2 }

	// Engine time per step, by fault class, over the traced rounds. Every
	// round has the same trial shapes, so round 0 gives each index's class.
	self := selfTimes(spans)
	runNS := map[string]float64{}
	for i, s := range spans {
		if s.Name == "radio.run" && spans[s.Phase].Name == "round" {
			runNS[rounds[0].trials[s.Trial].class] += float64(self[i])
		}
	}
	nsPerStep := func(classes ...string) float64 {
		ns, steps := 0.0, int64(0)
		for _, c := range classes {
			ns += runNS[c]
			steps += tt.stepsByClass[c]
		}
		if steps == 0 {
			return 0
		}
		return ns / float64(steps)
	}

	var all tally
	all.merge(st)
	all.merge(ct)
	c := perCounts(st.counts, ct.counts, 2)
	buildS := per("graph.build")
	arcs := perCount(st.arcs, ct.arcs)
	tracedArcs := float64(st.arcs)/setups + float64(tt.arcs)/float64(nr)
	m := layerMetrics(layerUnits)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }
	set("graph.build_s", buildS)
	set("graph.builds", perCount(st.graphBuilds, ct.graphBuilds))
	set("graph.arcs", arcs)
	if tracedArcs > 0 {
		set("graph.build_ns_per_arc", buildS*1e9/tracedArcs)
	}
	set("graph.compile_s", per("graph.compile"))
	set("lowerbound.build_s", per("lowerbound.build"))
	set("lowerbound.verify_s", per("lowerbound.verify"))
	set("lowerbound.builds", perCount(st.lbBuilds, ct.lbBuilds))
	set("core.setup_s", per("core.setup"))
	set("core.setups", perCount(st.coreSetups, ct.coreSetups))
	set("radio.run_s", per("radio.run"))
	set("radio.runs", perCount(st.radioRuns, ct.radioRuns))
	set("radio.ns_per_step", nsPerStep("clean", "node_faults", "arc_faults"))
	set("radio.ns_per_step.node_faults", nsPerStep("node_faults"))
	set("radio.ns_per_step.arc_faults", nsPerStep("arc_faults"))
	if all.radioRuns > 0 {
		set("radio.censored_ratio", float64(all.censored)/float64(all.radioRuns))
	}
	setCounters(set, c)
	set("pool.busy_ratio", busy/avail)
	set("trace.overhead_s", median(tracedWalls)-median(plainWalls))

	notes := shareLines(lt, "trial", nr)
	notes = append(notes, fmt.Sprintf("tracing overhead: traced round %.4f s - untraced round %.4f s = %.4f s",
		median(tracedWalls), median(plainWalls), median(tracedWalls)-median(plainWalls)))
	return m, notes
}

// perCounts normalizes engine counters to one set-up plus one round.
func perCounts(s, r counts, nRounds int) [9]float64 {
	a := [9]int64{s.Steps, s.Transmissions, s.Receptions, s.Collisions, s.SilentSteps, s.LinksDropped, s.JamNoise, s.CrashSkips, s.SleepSkips}
	b := [9]int64{r.Steps, r.Transmissions, r.Receptions, r.Collisions, r.SilentSteps, r.LinksDropped, r.JamNoise, r.CrashSkips, r.SleepSkips}
	var out [9]float64
	for i := range out {
		out[i] = float64(a[i])/setups + float64(b[i])/float64(max(nRounds, 1))
	}
	return out
}

// setCounters fills the deterministic counter metrics.
func setCounters(set func(string, float64), c [9]float64) {
	set("radio.steps", c[0])
	set("radio.transmissions", c[1])
	set("radio.receptions", c[2])
	set("radio.collisions", c[3])
	if c[2]+c[3] > 0 {
		set("radio.useful_ratio", c[2]/(c[2]+c[3]))
	}
	set("fault.links_dropped", c[5])
	set("fault.jam_noise", c[6])
	set("fault.crash_skips", c[7])
	set("fault.sleep_skips", c[8])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
