package optirand_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"optirand"
)

// local is the serial in-process Runner the tests and benchmarks of
// this package share. A local Runner holds no resources, so it is
// never closed.
var local = optirand.NewRunner()

// runOptimize runs OPTIMIZE for c's faults on the local Runner.
func runOptimize(c *optirand.Circuit, faults []optirand.Fault, opts optirand.OptimizeOptions) (*optirand.OptimizeResult, error) {
	return local.Optimize(context.Background(), optirand.OptimizeSpec{Circuit: c, Faults: faults, Options: opts})
}

// runCampaign runs spec on r and fails tb if the spec is rejected.
func runCampaign(tb testing.TB, r *optirand.Runner, spec optirand.CampaignSpec) *optirand.CampaignResult {
	tb.Helper()
	res, err := r.Campaign(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// weighted is the CampaignSpec of a seeded weighted random campaign.
func weighted(c *optirand.Circuit, faults []optirand.Fault, weights []float64, patterns int, seed uint64, curveStep int) optirand.CampaignSpec {
	return optirand.CampaignSpec{
		Circuit: c, Faults: faults, Source: optirand.Weights(weights),
		Patterns: patterns, Seed: seed, CurveStep: curveStep,
	}
}

// TestPublicAPIEndToEnd exercises the documented flow of the package
// comment: parse/build, fault extraction, analysis, optimization,
// simulation — all through the public facade.
func TestPublicAPIEndToEnd(t *testing.T) {
	bench, ok := optirand.BenchmarkByName("s1")
	if !ok {
		t.Fatal("built-in s1 missing")
	}
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	if len(faults) == 0 {
		t.Fatal("no faults")
	}

	uniform := optirand.UniformWeights(c)
	probs := optirand.EstimateDetectProbs(c, faults, uniform)
	before := optirand.RequiredTestLength(probs, optirand.DefaultConfidence)
	if before.N < 1e7 {
		t.Errorf("S1 conventional N = %v, expected random-pattern resistance (>1e7)", before.N)
	}

	res, err := runOptimize(c, faults, optirand.OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalN >= before.N/100 {
		t.Errorf("optimization gain too small: %v -> %v", before.N, res.FinalN)
	}

	conv := runCampaign(t, local, weighted(c, faults, uniform, 4000, 1, 0))
	opt := runCampaign(t, local, weighted(c, faults, res.Weights, 4000, 1, 0))
	if opt.Coverage() <= conv.Coverage() {
		t.Errorf("optimized coverage %v not above conventional %v", opt.Coverage(), conv.Coverage())
	}
}

func TestPublicAPIBenchRoundTrip(t *testing.T) {
	b := optirand.NewBuilder("tiny")
	x := b.Input("x")
	y := b.Input("y")
	b.Output("o", b.Nand("o", x, y))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := optirand.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	back, err := optirand.ParseBenchString(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != c.NumGates() {
		t.Errorf("round trip changed gate count: %d vs %d", back.NumGates(), c.NumGates())
	}
}

func TestPublicAPIExactMatchesEstimateOnTree(t *testing.T) {
	b := optirand.NewBuilder("tree")
	var xn []int
	for i := 0; i < 4; i++ {
		a := b.Input("a" + string(rune('0'+i)))
		x := b.Input("b" + string(rune('0'+i)))
		xn = append(xn, b.Xnor("", a, x))
	}
	b.Output("eq", b.And("eq", xn...))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults := optirand.CollapsedFaults(c)
	w := optirand.UniformWeights(c)
	est := optirand.EstimateDetectProbs(c, faults, w)
	exact := optirand.ExactDetectProbs(c, faults, w)
	for i := range est {
		if math.Abs(est[i]-exact[i]) > 1e-12 {
			t.Errorf("fault %d: estimate %v != exact %v on a tree", i, est[i], exact[i])
		}
	}
}

func TestPublicAPIWeightedLFSR(t *testing.T) {
	src := optirand.NewWeightedLFSR([]float64{0.25, 0.75}, 3)
	dst := make([]uint64, 2)
	src.NextWords(dst)
	q := src.Weights()
	if q[0] != 0.25 || q[1] != 0.75 {
		t.Errorf("quantized weights = %v", q)
	}
	if got := optirand.QuantizeWeight(0.99); got != 15.0/16 {
		t.Errorf("QuantizeWeight(0.99) = %v", got)
	}
}

func TestPublicAPIMixtureSimulation(t *testing.T) {
	bench, _ := optirand.BenchmarkByName("c432")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	res := runCampaign(t, local, optirand.CampaignSpec{
		Circuit: c, Faults: faults,
		Source:   optirand.Mixture(optirand.UniformWeights(c), optirand.UniformWeights(c)),
		Patterns: 2000, Seed: 5,
	})
	if res.Coverage() <= 0.5 {
		t.Errorf("mixture campaign coverage %v suspiciously low", res.Coverage())
	}
}

func TestPublicAPISimulateWithSource(t *testing.T) {
	bench, _ := optirand.BenchmarkByName("c432")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	src := optirand.NewWeightedLFSR(optirand.UniformWeights(c), 9)
	res := runCampaign(t, local, optirand.CampaignSpec{
		Circuit: c, Faults: faults, Source: optirand.Stream(src.NextWords), Patterns: 2000,
	})
	if res.Coverage() <= 0.5 {
		t.Errorf("LFSR campaign coverage %v suspiciously low", res.Coverage())
	}
}

func TestPublicAPIExpectedCoverage(t *testing.T) {
	cov := optirand.ExpectedCoverage([]float64{0.5}, 10)
	want := 1 - math.Pow(0.5, 10)
	if math.Abs(cov-want) > 1e-12 {
		t.Errorf("ExpectedCoverage = %v, want %v", cov, want)
	}
}

func TestBenchmarkRegistryThroughFacade(t *testing.T) {
	if len(optirand.Benchmarks()) != 12 {
		t.Error("expected 12 built-in circuits")
	}
	if len(optirand.MarkedBenchmarks()) != 4 {
		t.Error("expected 4 marked circuits")
	}
	if _, ok := optirand.BenchmarkByName("bogus"); ok {
		t.Error("bogus circuit found")
	}
}
