package radiotest

import (
	"testing"

	"adhocradio/internal/core"
	"adhocradio/internal/decay"
	"adhocradio/internal/det"
	"adhocradio/internal/radio"
)

// Every fault model must be mirrored in the reference simulator before it
// ships (CONTRIBUTING.md); these runs are the gate. The protocol list spans
// the delivery-path variants: the oblivious coin protocols the engine runs
// without node programs (core and decay, including E8's ablated and
// short-stage variants), deterministic nil-payload protocols
// (Select-and-Send, Round-Robin), and the neighbor-aware DFS token with its
// label-only SourceCarrier echoes.

func TestFaultDifferentialKPOptimal(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return core.New() }, Options{})
}

func TestFaultDifferentialKPAblated(t *testing.T) {
	CheckFaults(t, func() radio.Protocol {
		return core.NewWithParams(core.Params{DisableUniversalStep: true})
	}, Options{})
}

func TestFaultDifferentialDecay(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return decay.New() }, Options{})
}

func TestFaultDifferentialDecayShortStages(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return &decay.Protocol{StageLength: 3} }, Options{})
}

func TestFaultDifferentialSelectAndSend(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.SelectAndSend{} }, Options{})
}

func TestFaultDifferentialRoundRobin(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.RoundRobin{} }, Options{})
}

func TestFaultDifferentialDFSNeighborhood(t *testing.T) {
	CheckFaults(t, func() radio.Protocol { return det.DFSNeighborhood{} }, Options{})
}
