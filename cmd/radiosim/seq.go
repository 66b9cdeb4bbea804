package main

import (
	"fmt"
	"io"

	"adhocradio"
)

// runSeq is `radiosim seq`: it builds a Lemma 1 universal sequence and
// reports its structure — the base period, the per-exponent occurrence
// counts, and the verified recurrence windows (conditions U1 and U2).
// Strict mode accepts only parameters inside the lemma's window, e.g.
// -r 1048576 -d 524288; -relaxed clamps out-of-window tree levels.
func runSeq(args []string, w io.Writer) error {
	fs := newFlags("radiosim seq")
	var (
		r       = fs.Int("r", 1<<20, "label bound (power of two)")
		d       = fs.Int("d", 1<<19, "assumed radius (power of two, <= r)")
		relaxed = fs.Bool("relaxed", false, "clamp out-of-window tree levels (BuildRelaxed)")
		dump    = fs.Bool("dump", false, "print the full base period")
	)
	_ = fs.Parse(args) // exits on a bad flag; see newFlags

	build := adhocradio.BuildUniversalSequence
	if *relaxed {
		build = adhocradio.BuildUniversalSequenceRelaxed
	}
	u, err := build(*r, *d)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "universal sequence for r=%d, D=%d\n", u.R(), u.D())
	fmt.Fprintf(w, "strict construction: %v\n", u.Strict())
	fmt.Fprintf(w, "period length:       %d (Lemma 1 bound: < %d)\n", u.Period(), u.TotalBound())
	fmt.Fprintf(w, "U1/U2 boundary J1:   %d\n", u.J1())

	if err := u.Verify(); err != nil {
		fmt.Fprintf(w, "verification:        FAILED: %v\n", err)
	} else {
		fmt.Fprintf(w, "verification:        U1 and U2 hold over the infinite concatenation\n")
	}

	// Occurrence counts and guaranteed windows per exponent.
	var counts []int
	for i := 1; i <= u.Period(); i++ {
		j := u.ExponentAt(i)
		for len(counts) <= j {
			counts = append(counts, 0)
		}
		counts[j]++
	}
	fmt.Fprintln(w, "\nexponent  probability  occurrences  guaranteed window")
	for j, c := range counts {
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "%8d  1/2^%-7d %11d  every %d stages\n", j, j, c, u.GuaranteedWindow(j))
	}

	if *dump {
		fmt.Fprintln(w, "\nbase period (exponents):")
		for i := 1; i <= u.Period(); i++ {
			if (i-1)%32 == 0 && i > 1 {
				fmt.Fprintln(w)
			}
			fmt.Fprintf(w, "%3d ", u.ExponentAt(i))
		}
		fmt.Fprintln(w)
	}
	return nil
}
