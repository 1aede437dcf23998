package atpg

import (
	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/prng"
	"optirand/internal/sim"
)

// HybridResult reports the §5.2 hybrid flow: weighted random patterns
// first, deterministic top-off patterns for the residual faults.
type HybridResult struct {
	// RandomPatterns / RandomDetected summarize the random phase.
	RandomPatterns int
	RandomDetected int
	// TopOffPatterns is the number of deterministic patterns added;
	// TopOffDetected the number of residual faults they detect
	// (verified by simulation, not just claimed by the generator).
	TopOffPatterns int
	TopOffDetected int
	// Redundant counts residual faults PODEM proved untestable;
	// Aborted counts faults abandoned at the backtrack limit.
	Redundant int
	Aborted   int
	// TotalFaults is the campaign fault count; Coverage the final
	// detected fraction over the non-redundant faults.
	TotalFaults int
	// Patterns holds the deterministic top-off patterns.
	Patterns []*Pattern
}

// Coverage returns detected / (total - proven redundant).
func (h *HybridResult) Coverage() float64 {
	den := h.TotalFaults - h.Redundant
	if den <= 0 {
		return 1
	}
	return float64(h.RandomDetected+h.TopOffDetected) / float64(den)
}

// TopOff runs nRandom weighted random patterns, then PODEM on every
// fault the random phase missed, and verifies each generated pattern by
// simulation. Don't-care bits of deterministic patterns are filled
// randomly (they often detect further residual faults for free, which
// the verification pass credits).
func TopOff(c *circuit.Circuit, faults []fault.Fault, weights []float64,
	nRandom int, seed uint64, maxBacktracks int) *HybridResult {

	res := &HybridResult{TotalFaults: len(faults)}
	camp := sim.RunCampaignConfig(c, faults, [][]float64{weights}, seed,
		sim.CampaignConfig{Patterns: nRandom, Workers: 1})
	res.RandomPatterns = camp.Patterns
	res.RandomDetected = camp.Detected

	var residual []fault.Fault
	for i, fd := range camp.FirstDetected {
		if fd == 0 {
			residual = append(residual, faults[i])
		}
	}
	if len(residual) == 0 {
		return res
	}

	g := NewGenerator(c)
	if maxBacktracks > 0 {
		g.MaxBacktracks = maxBacktracks
	}
	rng := prng.New(seed ^ 0xa5a5a5a5a5a5a5a5)
	detected := make([]bool, len(residual))

	for i, f := range residual {
		if detected[i] {
			continue
		}
		p, st := g.Generate(f)
		switch st {
		case Untestable:
			res.Redundant++
			continue
		case Aborted:
			res.Aborted++
			continue
		}
		res.Patterns = append(res.Patterns, p)
		res.TopOffPatterns++
		bits := p.Fill(rng)
		// Credit every residual fault this pattern detects.
		for j, fj := range residual {
			if !detected[j] && sim.DetectsScalar(c, fj, bits) {
				detected[j] = true
				res.TopOffDetected++
			}
		}
		if !detected[i] && st == Success {
			// The generator claimed success but simulation disagrees —
			// that would be a soundness bug; surface it loudly.
			panic("atpg: generated pattern does not detect its target fault: " +
				f.Describe(c))
		}
	}
	return res
}
