package sim

import (
	"reflect"
	"runtime"
	"testing"

	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/gen"
)

// workerCounts are the pool sizes every equivalence test exercises:
// serial, even, odd/prime (shards of uneven length), and whatever this
// machine would pick by default.
func workerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// serial is the reference scheduling every equivalence test compares
// against: one worker, no pattern shards.
var serial = CampaignConfig{Workers: 1}

// runWeighted is RunCampaignConfig on a single weight set, with the
// budget and curve step given positionally and cfg carrying only the
// scheduling.
func runWeighted(c *circuit.Circuit, faults []fault.Fault, weights []float64,
	nPatterns int, seed uint64, curveStep int, cfg CampaignConfig) *CampaignResult {

	cfg.Patterns, cfg.CurveStep = nPatterns, curveStep
	return RunCampaignConfig(c, faults, [][]float64{weights}, seed, cfg)
}

// equalCampaigns fails the test unless a and b are identical in every
// field — coverage, first-detection indices, curve, pattern counts.
func equalCampaigns(t *testing.T, label string, a, b *CampaignResult) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: campaign results differ\nserial:   %+v\nparallel: %+v", label, a, b)
	}
}

// TestRunCampaignWorkersEquivalence asserts that the fault-sharded
// parallel campaign is bit-identical to the serial one on every
// generated benchmark circuit, for every tested worker count.
func TestRunCampaignWorkersEquivalence(t *testing.T) {
	const (
		nPatterns = 960
		curveStep = 200
		seed      = 1987
	)
	for _, b := range gen.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c := b.Build()
			faults := fault.New(c).Reps
			weights := make([]float64, c.NumInputs())
			for i := range weights {
				weights[i] = 0.5
			}
			ref := runWeighted(c, faults, weights, nPatterns, seed, curveStep, serial)
			for _, w := range workerCounts() {
				got := runWeighted(c, faults, weights, nPatterns, seed, curveStep, CampaignConfig{Workers: w})
				equalCampaigns(t, b.Name, ref, got)
				if t.Failed() {
					t.Fatalf("workers=%d diverged from serial", w)
				}
			}
		})
	}
}

// TestRunCampaignWorkersSkewedWeights repeats the equivalence check
// with a non-uniform weight vector (the optimized-test regime) on the
// two paper circuits whose campaigns are most sensitive to it.
func TestRunCampaignWorkersSkewedWeights(t *testing.T) {
	for _, name := range []string{"s1", "c2670"} {
		b, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		c := b.Build()
		faults := fault.New(c).Reps
		weights := make([]float64, c.NumInputs())
		for i := range weights {
			weights[i] = 0.05 + 0.9*float64(i%8)/7
		}
		ref := runWeighted(c, faults, weights, 1500, 7, 128, serial)
		for _, w := range workerCounts() {
			got := runWeighted(c, faults, weights, 1500, 7, 128, CampaignConfig{Workers: w})
			equalCampaigns(t, name, ref, got)
		}
	}
}

// TestRunCampaignMixtureWorkersEquivalence covers the §5.3 mixture
// rotation: parallel mixture campaigns must match serial ones.
func TestRunCampaignMixtureWorkersEquivalence(t *testing.T) {
	b, _ := gen.ByName("s1")
	c := b.Build()
	faults := fault.New(c).Reps
	n := c.NumInputs()
	mkWeights := func(p float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = p
		}
		return w
	}
	sets := [][]float64{mkWeights(0.5), mkWeights(0.8), mkWeights(0.2)}
	ref := RunCampaignConfig(c, faults, sets, 11, CampaignConfig{Patterns: 2000, CurveStep: 256, Workers: 1})
	for _, w := range workerCounts() {
		got := RunCampaignConfig(c, faults, sets, 11, CampaignConfig{Patterns: 2000, CurveStep: 256, Workers: w})
		equalCampaigns(t, "s1-mixture", ref, got)
	}
}

// TestRunCampaignWorkersRepeatable is the seeding property test: the
// same seed must give the identical CampaignResult across repeated
// parallel runs (run it under -race to also certify the sharding is
// data-race free).
func TestRunCampaignWorkersRepeatable(t *testing.T) {
	b, _ := gen.ByName("c6288")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := make([]float64, c.NumInputs())
	for i := range weights {
		weights[i] = 0.5
	}
	var ref *CampaignResult
	for rep := 0; rep < 3; rep++ {
		got := runWeighted(c, faults, weights, 640, 42, 100, CampaignConfig{Workers: 4})
		if ref == nil {
			ref = got
			continue
		}
		equalCampaigns(t, "c6288-repeat", ref, got)
	}
}

// TestRunCampaignWorkersEdgeCases pins the degenerate inputs the
// parallel path must handle exactly like the serial one: empty fault
// lists, zero/negative pattern budgets, more workers than faults, and
// budgets that are not multiples of the 64-pattern batch.
func TestRunCampaignWorkersEdgeCases(t *testing.T) {
	b, _ := gen.ByName("c880")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := make([]float64, c.NumInputs())
	for i := range weights {
		weights[i] = 0.5
	}
	cases := []struct {
		name     string
		faults   []fault.Fault
		patterns int
	}{
		{"empty-faults", nil, 100},
		{"zero-patterns", faults, 0},
		{"negative-patterns", faults, -5},
		{"tiny-fault-list", faults[:3], 100},
		{"odd-budget", faults, 77},
	}
	for _, tc := range cases {
		ref := runWeighted(c, tc.faults, weights, tc.patterns, 3, 10, serial)
		for _, w := range []int{1, 2, 7, 64} {
			got := runWeighted(c, tc.faults, weights, tc.patterns, 3, 10, CampaignConfig{Workers: w})
			equalCampaigns(t, tc.name, ref, got)
		}
	}
}
