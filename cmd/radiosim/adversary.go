package main

import (
	"fmt"
	"io"

	"adhocradio"
)

// runAdversary is `radiosim adversary`: it runs the Theorem 2 adversary
// against a chosen deterministic algorithm, verifies the construction
// against a real simulation (the executable Lemma 9), and dumps the
// resulting network's structure.
func runAdversary(args []string, w io.Writer) error {
	fs := newFlags("radiosim adversary")
	var (
		proto  = fs.String("proto", "ss", "victim protocol: rr|ss|inter")
		n      = fs.Int("n", 1024, "largest label (n+1 nodes)")
		d      = fs.Int("d", 64, "radius (even)")
		force  = fs.Bool("force", true, "build outside the asymptotic validity window")
		layers = fs.Bool("layers", false, "dump every constructed layer")
		dot    = fs.String("dot", "", "write the network as Graphviz DOT to this file")
		save   = fs.String("save", "", "write the network as an edge list to this file")
	)
	_ = fs.Parse(args) // exits on a bad flag; see newFlags

	named, err := adhocradio.ProtocolByName(*proto)
	if err != nil {
		return err
	}
	p, ok := named.(adhocradio.DeterministicProtocol)
	if !ok {
		return fmt.Errorf("protocol %q is not deterministic", *proto)
	}

	c, err := adhocradio.BuildAdversarialNetwork(p, adhocradio.AdversaryParams{N: *n, D: *d, Force: *force})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "victim: %s\n", p.Name())
	fmt.Fprint(w, c.Report())
	if *layers {
		for i, l := range c.Layers {
			fmt.Fprintf(w, "L_%d: L'=%v L*=%v\n", 2*i+1, l.Prime, l.Star)
		}
		fmt.Fprintf(w, "L_%d: %d nodes\n", c.D, len(c.LastLayer))
	}

	if *dot != "" {
		if err := writeGraph(*dot, func(f io.Writer) error { return c.G.WriteDOT(f, "adversarial") }); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote DOT to %s\n", *dot)
	}
	if *save != "" {
		if err := writeGraph(*save, c.G.WriteEdgeList); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote edge list to %s\n", *save)
	}

	res, err := adhocradio.VerifyAdversarialNetwork(p, c, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Lemma 9:         verified (real run matches the construction)\n")
	fmt.Fprintf(w, "real broadcast:  %d steps (>= bound: %v)\n",
		res.BroadcastTime, res.BroadcastTime >= c.LowerBoundSteps())
	return nil
}
