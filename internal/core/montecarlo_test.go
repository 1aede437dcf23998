package core

import (
	"math"
	"testing"

	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/testability"
)

// TestOptimizedWeightsMonteCarloCheck is the optimizer's sampling
// cross-check on the compiled simulation kernel: the Monte-Carlo
// estimator (which drives sim.DetectWords for every fault of every
// lane group — the campaign hot path) must deterministically
// reproduce itself and broadly agree with the analytic estimator the
// optimizer trusts, at the optimized weight vector where the two
// matter most.
func TestOptimizedWeightsMonteCarloCheck(t *testing.T) {
	b, ok := gen.ByName("c880")
	if !ok {
		t.Fatal("missing benchmark c880")
	}
	c := b.Build()
	faults := fault.New(c).Reps

	res, err := Optimize(c, faults, Options{MaxSweeps: 2})
	if err != nil {
		t.Fatal(err)
	}

	mc := &testability.MonteCarlo{Circuit: c, Words: 512, Seed: 77}
	got := mc.DetectProbs(res.Weights, faults)
	again := mc.DetectProbs(res.Weights, faults)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("Monte-Carlo estimate not deterministic at fault %d: %v vs %v", i, got[i], again[i])
		}
	}

	// Agreement with the analytic estimator: same scale for the
	// readily detectable faults (the analytic estimator ignores
	// reconvergence correlations, so only a loose band is meaningful).
	an := testability.NewAnalyzer(c)
	analytic := an.DetectProbs(res.Weights, faults)
	disagree := 0
	for i := range got {
		if analytic[i] < 0.05 {
			continue // below sampling resolution at 512 words
		}
		if math.Abs(got[i]-analytic[i]) > 0.35 {
			disagree++
		}
	}
	if frac := float64(disagree) / float64(len(faults)); frac > 0.10 {
		t.Errorf("%.1f%% of faults disagree between Monte-Carlo and analytic estimates", 100*frac)
	}
}
