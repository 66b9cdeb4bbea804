// Command radiosim runs a single broadcast simulation and reports what
// happened, optionally tracing every step. Two subcommands expose the
// paper's constructions.
//
// Usage:
//
//	radiosim -topo layered -n 1024 -d 64 -proto kp -seed 7 -v
//	radiosim adversary -proto ss -n 1024 -d 64   # §3 adversary (Figs. 1–2)
//	radiosim seq -r 4096 -d 512 -relaxed -dump    # Lemma 1 universal sequence
//
// Topologies: path, star, clique, grid, layered (random layered), complete
// (complete layered), gnp, tree, disk, starchain.
// Protocols: kp (optimal randomized), kp-paper (the paper's constants),
// bgi (Decay), rr (round-robin), ss (Select-and-Send), cl (Complete-Layered),
// inter (rr+ss interleaved).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"adhocradio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radiosim:", err)
		os.Exit(1)
	}
}

// run dispatches on the subcommand; without one it runs a broadcast.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "adversary":
			return runAdversary(args[1:], w)
		case "seq":
			return runSeq(args[1:], w)
		}
	}
	return runBroadcast(args, w)
}

// newFlags returns a flag set for one subcommand. Like the flag package's
// top-level set, it exits from Parse: status 0 after -h, and status 2 after
// printing the usage for a bad flag.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// writeGraph creates path and streams a graph encoding into it.
func writeGraph(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runBroadcast(args []string, w io.Writer) error {
	fs := newFlags("radiosim")
	var (
		topo     = fs.String("topo", "layered", "topology: path|star|clique|grid|layered|complete|gnp|tree|disk|starchain")
		n        = fs.Int("n", 256, "number of nodes")
		d        = fs.Int("d", 16, "radius (layered/complete/starchain)")
		p        = fs.Float64("p", 0.3, "edge density (layered/gnp)")
		proto    = fs.String("proto", "kp", "protocol: kp|kp-paper|bgi|rr|ss|cl|inter")
		seed     = fs.Uint64("seed", 1, "random seed (topology and protocol)")
		maxStep  = fs.Int("maxsteps", 0, "step budget (0 = default)")
		verbose  = fs.Bool("v", false, "trace every step with transmissions")
		timeline = fs.Bool("timeline", false, "print the informed-fraction timeline and per-layer delays")
		energy   = fs.Bool("energy", false, "print per-node energy (transmission) statistics")
		heatmap  = fs.Bool("heatmap", false, "print the layer/time heatmap")
	)
	_ = fs.Parse(args) // exits on a bad flag; see newFlags

	g, err := buildTopology(*topo, *n, *d, *p, *seed)
	if err != nil {
		return err
	}
	protocol, err := adhocradio.ProtocolByName(*proto)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "network:  %s\n", g.Stats())
	fmt.Fprintf(w, "protocol: %s\n", protocol.Name())

	opt := adhocradio.Options{MaxSteps: *maxStep}
	collector := adhocradio.NewCollector()
	hook := collector.Hook()
	opt.Trace = func(step int, tx []int, rx []adhocradio.Message) {
		hook(step, tx, rx)
		if *verbose && len(tx) > 0 {
			fmt.Fprintf(w, "step %5d: tx=%v rx=%d\n", step, tx, len(rx))
		}
	}
	res, err := adhocradio.Broadcast(g, protocol, adhocradio.Config{Seed: *seed}, opt)
	if errors.Is(err, adhocradio.ErrBudgetExhausted) {
		// The partial result is still meaningful: report how far the
		// broadcast got before failing the run.
		informed := 0
		for _, at := range res.InformedAt {
			if at >= 0 {
				informed++
			}
		}
		fmt.Fprintf(w, "step budget exhausted: %d/%d nodes informed after %d steps (raise -maxsteps)\n",
			informed, g.N(), res.StepsSimulated)
		return err
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "broadcast time:  %d steps\n", res.BroadcastTime)
	fmt.Fprintf(w, "transmissions:   %d\n", res.Transmissions)
	fmt.Fprintf(w, "receptions:      %d\n", res.Receptions)
	fmt.Fprintf(w, "collisions:      %d\n", res.Collisions)
	if r, err := g.Radius(); err == nil && r > 0 {
		fmt.Fprintf(w, "steps per layer: %.1f\n", float64(res.BroadcastTime)/float64(r))
	}
	if *timeline {
		progress, err := adhocradio.AnalyzeProgress(g, res)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, progress.Timeline(60))
		if layer, delay := progress.SlowestLayer(); layer >= 0 {
			fmt.Fprintf(w, "slowest layer:   %d (%d steps to cross)\n", layer, delay)
		}
	}
	if *energy {
		e := collector.Energy()
		fmt.Fprintf(w, "energy: %d transmissions over %d active nodes (mean %.1f, max %d at node %d)\n",
			e.Total, e.Nodes, e.Mean, e.Max, e.MaxNode)
		fmt.Fprintf(w, "fairness (Jain): %.3f\n", collector.JainFairness())
		fmt.Fprintf(w, "top transmitters: %v\n", collector.TopTransmitters(5))
	}
	if *heatmap {
		progress, err := adhocradio.AnalyzeProgress(g, res)
		if err != nil {
			return err
		}
		layers, err := g.Layers()
		if err != nil {
			return err
		}
		fmt.Fprint(w, adhocradio.LayerHeatmap(progress, layers, res.InformedAt, 60))
	}
	return nil
}

// buildTopology maps the flags onto a TopologySpec — the same canonical
// description radiosd caches compiled graphs by, so the CLI and the daemon
// build byte-identical networks for the same parameters.
func buildTopology(topo string, n, d int, p float64, seed uint64) (*adhocradio.Graph, error) {
	spec := adhocradio.TopologySpec{Kind: topo, N: n, D: d, P: p, Seed: seed}
	if topo == "grid" {
		side := int(math.Sqrt(float64(n)))
		spec = adhocradio.TopologySpec{Kind: "grid", Rows: side, Cols: side}
	}
	g, err := spec.Build()
	if errors.Is(err, adhocradio.ErrInvalidTopologySpec) {
		return nil, fmt.Errorf("bad -topo/-n/-d/-p combination (kinds: %s): %w",
			strings.Join(adhocradio.TopologyKinds(), "|"), err)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}
