// Package optirand computes optimized input probabilities for weighted
// random testing of combinational circuits, reproducing H.-J.
// Wunderlich, "On Computing Optimized Input Probabilities for Random
// Tests", 24th Design Automation Conference (DAC), 1987.
//
// A conventional random test drives every primary input with
// probability 0.5; circuits with wide rarely-satisfied cones (equality
// comparators, dividers) then need astronomically many patterns. This
// library computes one optimized probability per primary input that
// minimizes the objective J_N(X) = Σ_f exp(-N·p_f(X)) over the fault
// set, shrinking the required test length by orders of magnitude.
//
// The typical flow — kept compiling by Example_runner in
// example_test.go, so it cannot drift from the real signatures:
//
//	c, _ := optirand.ParseBenchFile("mydesign.bench") // or a built-in benchmark
//	faults := optirand.CollapsedFaults(c)
//	r := optirand.NewRunner() // or WithWorkers(8), WithRemote("host:8417"), …
//	defer r.Close()
//	opt, _ := r.Optimize(ctx, optirand.OptimizeSpec{Circuit: c, Faults: faults})
//	cov, _ := r.Campaign(ctx, optirand.CampaignSpec{
//		Circuit: c, Faults: faults,
//		Source:   optirand.Weights(opt.Weights),
//		Patterns: 10000,
//	})
//	fmt.Println(opt.FinalN, cov.Coverage())
//
// Runner is the execution surface: one handle that runs campaigns,
// optimizations, and sweep grids on an in-process pool, behind a
// content-addressed cache, or on a remote optirandd service — with
// bit-identical results on every backend.
//
// The heavy lifting lives in internal packages: gate-level circuit
// model, bench-format I/O, 64-way parallel fault simulation, BDD-exact
// and PROTEST-style probability analysis, the NORMALIZE test-length
// computation, the coordinate-descent optimizer, LFSR-based weighted
// pattern hardware models, and generators for the paper's twelve
// evaluation circuits. This package is the stable facade over them.
package optirand

import (
	"io"
	"os"

	"optirand/internal/atpg"
	"optirand/internal/bench"
	"optirand/internal/circuit"
	"optirand/internal/core"
	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/lfsr"
	"optirand/internal/prob"
	"optirand/internal/sim"
	"optirand/internal/testability"
	"optirand/internal/testlen"
)

// Re-exported core types. The aliases keep one public import path while
// the implementation stays in internal packages.
type (
	// Circuit is a gate-level combinational network.
	Circuit = circuit.Circuit
	// GateType enumerates gate functions (AND, NAND, XOR, …).
	GateType = circuit.GateType
	// Builder constructs circuits programmatically.
	Builder = circuit.Builder
	// Fault is a single stuck-at fault on a stem or branch line.
	Fault = fault.Fault
	// FaultUniverse is the collapsed fault universe of a circuit.
	FaultUniverse = fault.Universe
	// OptimizeOptions configures the optimizer (confidence, clamps,
	// quantization grid, …). The zero value selects paper defaults.
	OptimizeOptions = core.Options
	// OptimizeResult reports optimized weights, the initial and final
	// required test lengths, and per-sweep history.
	OptimizeResult = core.Result
	// CampaignResult reports a fault-simulation campaign (coverage,
	// first-detection indices, coverage curve).
	CampaignResult = sim.CampaignResult
	// CoveragePoint is one sample of a coverage curve.
	CoveragePoint = sim.CoveragePoint
	// AdaptiveInfo records the round provenance of a block-adaptive
	// campaign (CampaignResult.Adaptive; see the Adaptive source).
	AdaptiveInfo = sim.AdaptiveInfo
	// RoundStat is one adaptive round's boundary state.
	RoundStat = sim.RoundStat
	// Benchmark describes one built-in evaluation circuit with its
	// paper reference data.
	Benchmark = gen.Benchmark
	// TestLength reports NORMALIZE results (N, hard-fault count,
	// undetectable count).
	TestLength = testlen.Result
	// Analyzer is the PROTEST-style testability analyzer.
	Analyzer = testability.Analyzer
	// WeightedLFSR is the hardware-faithful weighted pattern source.
	WeightedLFSR = lfsr.WeightedSource
)

// Gate type constants, re-exported for Builder users.
const (
	Input  = circuit.Input
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Nand   = circuit.Nand
	Or     = circuit.Or
	Nor    = circuit.Nor
	Xor    = circuit.Xor
	Xnor   = circuit.Xnor
	Const0 = circuit.Const0
	Const1 = circuit.Const1
)

// DefaultConfidence is the confidence level ε used throughout the
// experiments (Q = -ln ε ≈ 10^-3).
const DefaultConfidence = testlen.DefaultConfidence

// NewBuilder starts a programmatic circuit description.
func NewBuilder(name string) *Builder { return circuit.NewBuilder(name) }

// ParseBench reads a netlist in the ISCAS bench format.
func ParseBench(r io.Reader) (*Circuit, error) { return bench.Parse(r) }

// ParseBenchString parses a bench netlist held in a string.
func ParseBenchString(s string) (*Circuit, error) { return bench.ParseString(s) }

// ParseBenchFile reads a .bench netlist from disk.
func ParseBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bench.Parse(f)
}

// WriteBench emits the circuit in bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Benchmarks returns the twelve built-in evaluation circuits of the
// paper (S1, S2, and the C432…C7552 analogues) in Table 1 order.
func Benchmarks() []Benchmark { return gen.Benchmarks() }

// MarkedBenchmarks returns the four random-pattern-resistant circuits
// the paper optimizes (S1, S2, C2670, C7552).
func MarkedBenchmarks() []Benchmark { return gen.Marked() }

// BenchmarkByName looks up a built-in circuit ("s1", "c7552", …).
func BenchmarkByName(name string) (Benchmark, bool) { return gen.ByName(name) }

// Faults returns the full collapsed fault universe of c.
func Faults(c *Circuit) *FaultUniverse { return fault.New(c) }

// CollapsedFaults returns the equivalence-collapsed stuck-at fault list
// of c — the fault model F of the paper (primary-input faults kept as
// class representatives).
func CollapsedFaults(c *Circuit) []Fault { return fault.New(c).Reps }

// UniformWeights returns the conventional random test's weight vector:
// probability 0.5 for every primary input of c.
func UniformWeights(c *Circuit) []float64 {
	w := make([]float64, c.NumInputs())
	for i := range w {
		w[i] = 0.5
	}
	return w
}

// NewAnalyzer creates a PROTEST-style testability analyzer for c.
func NewAnalyzer(c *Circuit) *Analyzer { return testability.NewAnalyzer(c) }

// EstimateDetectProbs estimates the detection probability of each fault
// under the given per-input 1-probabilities, using the analytic
// (PROTEST-style) estimator.
func EstimateDetectProbs(c *Circuit, faults []Fault, weights []float64) []float64 {
	return testability.NewAnalyzer(c).DetectProbs(weights, faults)
}

// ExactDetectProbs computes exact detection probabilities by BDD
// weighted model counting (Parker–McCluskey). Exponential worst case —
// intended for small circuits and validation.
func ExactDetectProbs(c *Circuit, faults []Fault, weights []float64) []float64 {
	return prob.ExactDetectProbs(c, faults, weights)
}

// RequiredTestLength computes the minimal random-test length achieving
// the given confidence for the fault detection probabilities, via the
// paper's NORMALIZE procedure.
func RequiredTestLength(probs []float64, confidence float64) TestLength {
	return testlen.Normalize(probs, confidence)
}

// ExpectedCoverage predicts the fault coverage of an n-pattern random
// test from detection probabilities.
func ExpectedCoverage(probs []float64, n float64) float64 {
	return testlen.ExpectedCoverage(probs, n)
}

// MultiDistributionResult reports the §5.3 extension: several weight
// sets serving a partitioned fault set.
type MultiDistributionResult = core.MultiResult

// OptimizeMultiDistribution implements the extension the paper proposes
// for "pathological" circuits (§5.3): when pairs of hard faults have
// test sets far apart in Hamming distance, no single distribution
// serves both; the fault set is partitioned and one distribution is
// optimized per part. Patterns are then drawn from the equal mixture
// (a Runner campaign whose Source is Mixture(res.WeightSets...)).
func OptimizeMultiDistribution(c *Circuit, faults []Fault, maxParts int, opts OptimizeOptions) (*MultiDistributionResult, error) {
	return core.OptimizeMulti(c, faults, maxParts, opts)
}

// NewWeightedLFSR builds the hardware-faithful weighted pattern source:
// per-input LFSRs with weighting networks on the 1/16 probability grid
// (the BIST implementation of the paper's §5.2).
func NewWeightedLFSR(weights []float64, seed uint64) *WeightedLFSR {
	return lfsr.NewWeightedSource(weights, seed)
}

// QuantizeWeight rounds a probability to the 1/16 hardware grid.
func QuantizeWeight(p float64) float64 { return lfsr.QuantizeWeight(p) }

// MISR is a multiple-input signature register — the response-compaction
// half of a BILBO-style self-test module.
type MISR = lfsr.MISR

// NewMISR builds an n-bit signature register with a primitive feedback
// polynomial (aliasing probability 2^-n).
func NewMISR(n int) *MISR { return lfsr.NewMISR(n) }

// Deterministic test generation (PODEM), used for the §5.2 hybrid flow:
// optimized random patterns first, deterministic top-off for the
// residual faults.
type (
	// TestPattern is a partially specified deterministic pattern.
	TestPattern = atpg.Pattern
	// ATPGStatus is the outcome of one generation attempt
	// (success / untestable / aborted).
	ATPGStatus = atpg.Status
	// ATPGResult is a batch generation report.
	ATPGResult = atpg.Result
	// HybridResult reports a random + top-off campaign.
	HybridResult = atpg.HybridResult
)

// ATPG status values.
const (
	ATPGSuccess    = atpg.Success
	ATPGUntestable = atpg.Untestable
	ATPGAborted    = atpg.Aborted
)

// GenerateTest runs PODEM for a single fault, returning a detecting
// pattern, a redundancy proof, or an abort at the backtrack limit
// (maxBacktracks <= 0 selects the default).
func GenerateTest(c *Circuit, f Fault, maxBacktracks int) (*TestPattern, ATPGStatus) {
	g := atpg.NewGenerator(c)
	if maxBacktracks > 0 {
		g.MaxBacktracks = maxBacktracks
	}
	return g.Generate(f)
}

// GenerateTests runs PODEM over a fault list.
func GenerateTests(c *Circuit, faults []Fault, maxBacktracks int) *ATPGResult {
	return atpg.GenerateAll(c, faults, maxBacktracks)
}

// HybridTest runs the paper §5.2 flow: nRandom weighted random patterns
// followed by deterministic top-off patterns for every fault the random
// phase missed, with simulation-verified crediting.
func HybridTest(c *Circuit, faults []Fault, weights []float64, nRandom int, seed uint64, maxBacktracks int) *HybridResult {
	return atpg.TopOff(c, faults, weights, nRandom, seed, maxBacktracks)
}

// EvalOutputsWithFault evaluates the faulty machine for one input
// assignment — the scalar reference semantics, useful for signature
// computation and debugging.
func EvalOutputsWithFault(c *Circuit, f Fault, inputs []bool) []bool {
	return sim.EvalOutputsWithFault(c, f, inputs)
}

// NewStafanEstimator returns the simulation-counting detection
// probability estimator (STAFAN), an alternative ANALYSIS provider the
// paper names; words 64-pattern batches are counted (0 = default).
func NewStafanEstimator(c *Circuit, words int, seed uint64) interface {
	DetectProbs(weights []float64, faults []Fault) []float64
} {
	return &testability.Stafan{Circuit: c, Words: words, Seed: seed}
}
