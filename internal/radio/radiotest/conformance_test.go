// Conformance runs for every protocol in the repository. Living here (a
// package that may import all protocol packages) avoids import cycles.
package radiotest

import (
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/radio"
)

func TestConformanceKPOptimal(t *testing.T) {
	Check(t, func() radio.Protocol { return core.New() }, Options{})
}

func TestConformanceKPKnownRadius(t *testing.T) {
	Check(t, func() radio.Protocol {
		return core.NewWithParams(core.Params{KnownRadius: 8})
	}, Options{})
}

func TestConformanceKPPaperExact(t *testing.T) {
	Check(t, func() radio.Protocol { return core.NewPaperExact() }, Options{})
}

func TestConformanceKPAblated(t *testing.T) {
	Check(t, func() radio.Protocol {
		return core.NewWithParams(core.Params{DisableUniversalStep: true})
	}, Options{})
}

func TestConformanceDecay(t *testing.T) {
	Check(t, func() radio.Protocol { return decay.New() }, Options{})
}

func TestConformanceDecayShortStages(t *testing.T) {
	Check(t, func() radio.Protocol { return &decay.Protocol{StageLength: 3} }, Options{})
}

func TestConformanceRoundRobin(t *testing.T) {
	Check(t, func() radio.Protocol { return det.RoundRobin{} }, Options{})
}

func TestConformanceSelectAndSend(t *testing.T) {
	Check(t, func() radio.Protocol { return det.SelectAndSend{} }, Options{})
}

func TestConformanceInterleaved(t *testing.T) {
	Check(t, func() radio.Protocol {
		return det.NewInterleaved(det.RoundRobin{}, det.SelectAndSend{})
	}, Options{})
}

func TestConformanceDFSNeighborhood(t *testing.T) {
	Check(t, func() radio.Protocol { return det.DFSNeighborhood{} }, Options{})
}

func TestConformanceSpontaneousLinear(t *testing.T) {
	Check(t, func() radio.Protocol { return det.SpontaneousLinear{} }, Options{})
}

func TestConformanceObliviousDecay(t *testing.T) {
	Check(t, func() radio.Protocol { return det.ObliviousDecay{Seed: 11} }, Options{})
}

func TestConformanceCompleteLayered(t *testing.T) {
	// Complete-Layered is only correct on complete layered networks: skip
	// everything else in the battery. (Path and star are complete layered.)
	Check(t, func() radio.Protocol { return det.CompleteLayered{} }, Options{
		Skip: map[string]bool{
			"clique": true, "grid": true, "tree": true, "gnp": true,
			"chain": true, "hypercube": true, "barbell": true, "rlayered": true,
		},
	})
}
