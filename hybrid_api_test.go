package optirand_test

import (
	"testing"

	"optirand"
)

// TestHybridAPIEndToEnd exercises the §5.2 extension surface: ATPG,
// hybrid top-off, MISR signatures and the STAFAN estimator.
func TestHybridAPIEndToEnd(t *testing.T) {
	bench, _ := optirand.BenchmarkByName("s1")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)

	// Single-fault ATPG.
	p, st := optirand.GenerateTest(c, faults[0], 0)
	if st != optirand.ATPGSuccess || p == nil {
		t.Fatalf("GenerateTest: %v", st)
	}
	if p.Specified() == 0 {
		t.Error("pattern specifies nothing")
	}

	// Batch ATPG.
	res := optirand.GenerateTests(c, faults[:40], 0)
	if res.Detected == 0 {
		t.Error("batch ATPG found nothing")
	}

	// Hybrid flow with uniform weights.
	h := optirand.HybridTest(c, faults, optirand.UniformWeights(c), 1000, 7, 4096)
	if h.Coverage() < 0.99 {
		t.Errorf("hybrid coverage %v", h.Coverage())
	}
	if h.RandomPatterns != 1000 {
		t.Errorf("RandomPatterns = %d", h.RandomPatterns)
	}

	// MISR signatures distinguish good from faulty responses.
	good := optirand.NewMISR(24)
	bad := optirand.NewMISR(24)
	in := make([]bool, c.NumInputs())
	for k := 0; k < 256; k++ { // k=255 gives A==B==all-ones: detects A0 s-a-0
		for i := range in {
			in[i] = (k>>uint(i%8))&1 == 1
		}
		pack := func(bits []bool) uint64 {
			var v uint64
			for i, o := range bits {
				if o {
					v |= 1 << uint(i)
				}
			}
			return v
		}
		good.Clock(pack(c.EvalOutputs(in)))
		bad.Clock(pack(optirand.EvalOutputsWithFault(c, faults[0], in)))
	}
	if good.Signature() == bad.Signature() {
		t.Error("faulty signature aliased with the fault-free one")
	}
}

// TestStafanFacade: the counting estimator is reachable and sane
// through the facade.
func TestStafanFacade(t *testing.T) {
	bench, _ := optirand.BenchmarkByName("c432")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	est := optirand.NewStafanEstimator(c, 64, 3)
	probs := est.DetectProbs(optirand.UniformWeights(c), faults)
	if len(probs) != len(faults) {
		t.Fatalf("got %d probs for %d faults", len(probs), len(faults))
	}
	nonzero := 0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		if p > 0 {
			nonzero++
		}
	}
	if nonzero < len(faults)/2 {
		t.Errorf("only %d/%d faults measurable", nonzero, len(faults))
	}
}

// TestHybridWithOptimizedWeightsBeatsUniform: fewer top-off patterns
// are needed after weight optimization — the two halves of the paper's
// §5.2 story compose.
func TestHybridWithOptimizedWeightsBeatsUniform(t *testing.T) {
	bench, _ := optirand.BenchmarkByName("c7552")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	// Exclude proven-undetectable faults so ATPG time is not wasted
	// proving redundancies.
	probs := optirand.EstimateDetectProbs(c, faults, optirand.UniformWeights(c))
	var live []optirand.Fault
	for i, f := range faults {
		if probs[i] > 0 {
			live = append(live, f)
		}
	}
	opt, err := runOptimize(c, live, optirand.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	uni := optirand.HybridTest(c, live, optirand.UniformWeights(c), 1500, 11, 20000)
	wtd := optirand.HybridTest(c, live, opt.Weights, 1500, 11, 20000)
	if wtd.RandomDetected <= uni.RandomDetected {
		t.Errorf("optimized random phase detected %d, uniform %d",
			wtd.RandomDetected, uni.RandomDetected)
	}
	if wtd.Coverage() < uni.Coverage() {
		t.Errorf("optimized hybrid coverage %v below uniform %v",
			wtd.Coverage(), uni.Coverage())
	}
}
