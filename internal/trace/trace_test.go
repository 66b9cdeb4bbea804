package trace

import (
	"strings"
	"testing"

	"adhocradio/internal/det"
	"adhocradio/internal/graph"
	"adhocradio/internal/radio"
)

func runWithCollector(t *testing.T, g *graph.Graph, p radio.Protocol) (*Collector, *radio.Result) {
	t.Helper()
	var c Collector
	res, err := radio.Run(g, p, radio.Config{}, radio.Options{Trace: c.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	return &c, res
}

func TestCollectorCountsMatchResult(t *testing.T) {
	g := graph.Path(12)
	c, res := runWithCollector(t, g, det.RoundRobin{})
	var total int64
	for s := 1; s <= c.Steps(); s++ {
		total += int64(c.TransmissionsAt(s))
	}
	if total != res.Transmissions {
		t.Fatalf("collector total %d, result %d", total, res.Transmissions)
	}
	if e := c.Energy(); e.Total != res.Transmissions {
		t.Fatalf("energy total %d, result %d", e.Total, res.Transmissions)
	}
}

func TestCollectorOutOfRange(t *testing.T) {
	var c Collector
	if c.TransmissionsAt(0) != 0 || c.TransmissionsAt(99) != 0 {
		t.Fatal("out-of-range steps must report 0")
	}
	if s, tx := c.BusiestStep(); s != 0 || tx != 0 {
		t.Fatal("empty collector busiest step")
	}
	if c.SilentSteps() != 0 {
		t.Fatal("empty collector silent steps")
	}
}

func TestBusiestAndSilent(t *testing.T) {
	g := graph.Star(6)
	// Round-robin on a star: source transmits at its slot; then every
	// leaf transmits in its own slot (all informed after source's slot).
	c, _ := runWithCollector(t, g, det.RoundRobin{})
	step, tx := c.BusiestStep()
	if tx < 1 || step < 1 {
		t.Fatalf("busiest = (%d, %d)", step, tx)
	}
	if c.SilentSteps() >= c.Steps() {
		t.Fatal("every step silent?")
	}
}

func TestEnergyPerNode(t *testing.T) {
	g := graph.Path(8)
	c, _ := runWithCollector(t, g, det.RoundRobin{})
	e := c.Energy()
	if e.Nodes == 0 || e.Mean <= 0 || e.Max <= 0 || e.MaxNode < 0 {
		t.Fatalf("energy %+v", e)
	}
	top := c.TopTransmitters(3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0][1] < top[1][1] || top[1][1] < top[2][1] {
		t.Fatalf("top not sorted: %v", top)
	}
	if top[0][1] != e.Max {
		t.Fatalf("top[0]=%v, max=%d", top[0], e.Max)
	}
	if len(c.TopTransmitters(100)) > e.Nodes {
		t.Fatal("TopTransmitters exceeded node count")
	}
}

func TestAnalyzeProgressOnPath(t *testing.T) {
	g := graph.Path(6)
	_, res := runWithCollector(t, g, det.RoundRobin{})
	p, err := AnalyzeProgress(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Radius != 5 || len(p.LayerDone) != 6 {
		t.Fatalf("progress %+v", p)
	}
	// Layer completion must be non-decreasing and start at 0.
	if p.LayerDone[0] != 0 {
		t.Fatalf("source layer done at %d", p.LayerDone[0])
	}
	for l := 1; l < len(p.LayerDone); l++ {
		if p.LayerDone[l] < p.LayerDone[l-1] {
			t.Fatalf("layer completion not monotone: %v", p.LayerDone)
		}
	}
	delays := p.PerLayerDelays()
	if len(delays) != 5 {
		t.Fatalf("delays %v", delays)
	}
	slowest, d := p.SlowestLayer()
	if slowest < 1 || d <= 0 {
		t.Fatalf("slowest = (%d, %d)", slowest, d)
	}
	// Final cumulative count equals n.
	if got := p.InformedByStep[len(p.InformedByStep)-1]; got != 6 {
		t.Fatalf("final informed %d", got)
	}
}

func TestProgressDisconnectedFails(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.MustAddEdge(0, 1)
	g := b.MustBuild()
	if _, err := AnalyzeProgress(g, &radio.Result{InformedAt: []int{0, 1, -1}}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestTimelineRendering(t *testing.T) {
	g := graph.Path(10)
	_, res := runWithCollector(t, g, det.RoundRobin{})
	p, err := AnalyzeProgress(g, res)
	if err != nil {
		t.Fatal(err)
	}
	tl := p.Timeline(20)
	if !strings.Contains(tl, "10/10 informed") {
		t.Fatalf("timeline %q", tl)
	}
	// Width respected: 20 ramp runes between the pipes.
	inner := tl[strings.Index(tl, "|")+1 : strings.LastIndex(tl, "|")]
	if n := len([]rune(inner)); n != 20 {
		t.Fatalf("timeline width %d: %q", n, tl)
	}
	// Degenerate width falls back to the default.
	if !strings.Contains(p.Timeline(0), "informed") {
		t.Fatal("zero width broke timeline")
	}
}

func TestTimelineNoProgress(t *testing.T) {
	p := &Progress{InformedByStep: []int{0}}
	if p.Timeline(10) != "(no progress)" {
		t.Fatal("empty progress rendering")
	}
}

func TestPerLayerDelaysShort(t *testing.T) {
	p := &Progress{LayerDone: []int{0}}
	if p.PerLayerDelays() != nil {
		t.Fatal("radius-0 delays must be nil")
	}
	if l, d := p.SlowestLayer(); l != -1 || d != 0 {
		t.Fatalf("slowest on radius-0: (%d,%d)", l, d)
	}
}

// TestCollectorCountersMatchEngine: the collector's counter projection must
// agree with the engine's own ledger on every hook-visible field.
func TestCollectorCountersMatchEngine(t *testing.T) {
	g := graph.Grid(4, 5)
	var c Collector
	r := radio.NewRunner()
	res, err := r.Run(g, det.RoundRobin{}, radio.Config{}, radio.Options{Trace: c.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	hook, eng := c.Counters(), r.Counters()
	if hook.Steps != eng.Steps || hook.Transmissions != eng.Transmissions ||
		hook.Receptions != eng.Receptions || hook.SilentSteps != eng.SilentSteps {
		t.Fatalf("hook counters diverge from engine:\nhook   %+v\nengine %+v", hook, eng)
	}
	if hook.Transmissions != res.Transmissions {
		t.Fatalf("hook transmissions %d, result %d", hook.Transmissions, res.Transmissions)
	}
	if hook.Collisions != 0 {
		t.Fatal("collisions are not hook-visible and must stay zero")
	}
}

// TestCollectorEmptyRun: a collector that never saw a hook call reports
// zeroes everywhere instead of panicking.
func TestCollectorEmptyRun(t *testing.T) {
	var c Collector
	if !c.Counters().IsZero() {
		t.Fatalf("empty collector counters: %+v", c.Counters())
	}
	if c.Steps() != 0 || c.SilentSteps() != 0 {
		t.Fatal("empty collector observed steps")
	}
	if e := c.Energy(); e.Total != 0 || e.Nodes != 0 || e.MaxNode != -1 {
		t.Fatalf("empty collector energy: %+v", e)
	}
	if top := c.TopTransmitters(3); len(top) != 0 {
		t.Fatalf("empty collector top transmitters: %v", top)
	}
}

// TestCollectorSingleNode: an n=1 broadcast finishes before step 1, so the
// hook never fires; the collector and AnalyzeProgress must both cope.
func TestCollectorSingleNode(t *testing.T) {
	g := graph.Path(1)
	c, res := runWithCollector(t, g, det.RoundRobin{})
	if !res.Completed || res.StepsSimulated != 0 {
		t.Fatalf("n=1 result: %+v", res)
	}
	if c.Steps() != 0 || !c.Counters().IsZero() {
		t.Fatalf("n=1 collector saw events: %+v", c.Counters())
	}
	p, err := AnalyzeProgress(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if p.Radius != 0 || len(p.LayerDone) != 1 || p.LayerDone[0] != 0 {
		t.Fatalf("n=1 progress: %+v", p)
	}
	if layer, delay := p.SlowestLayer(); layer != -1 || delay != 0 {
		t.Fatalf("n=1 slowest layer = (%d, %d)", layer, delay)
	}
	if got := p.Timeline(10); !strings.Contains(got, "1/1 informed after 0 steps") {
		t.Fatalf("n=1 timeline: %q", got)
	}
}

// TestCollectorStepGaps: a sparse trace (hook invoked for step 3 only) pads
// the unseen steps as silent, and the padding stays consistent across the
// accessors and the counter projection.
func TestCollectorStepGaps(t *testing.T) {
	var c Collector
	hook := c.Hook()
	hook(3, []int{4, 7}, []radio.Message{{From: 4}})
	if c.Steps() != 3 {
		t.Fatalf("steps = %d, want 3 (padded)", c.Steps())
	}
	if c.TransmissionsAt(1) != 0 || c.TransmissionsAt(2) != 0 || c.TransmissionsAt(3) != 2 {
		t.Fatal("padding misplaced the observation")
	}
	if c.SilentSteps() != 2 {
		t.Fatalf("silent steps = %d, want 2", c.SilentSteps())
	}
	k := c.Counters()
	if k.Steps != 3 || k.Transmissions != 2 || k.Receptions != 1 || k.SilentSteps != 2 {
		t.Fatalf("gap counters: %+v", k)
	}
	// A later in-order call extends the arrays past the gap.
	hook(5, []int{1}, nil)
	if c.Steps() != 5 || c.SilentSteps() != 3 {
		t.Fatalf("after second gap: steps=%d silent=%d", c.Steps(), c.SilentSteps())
	}
}
