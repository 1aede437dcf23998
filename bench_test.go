// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: N_conv / N_opt report the required test lengths the
// run computed (the content of Tables 1/3), cov% reports simulated
// coverage (Tables 2/4). Sub-benchmarks are named after the paper's
// circuits.
package optirand_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"optirand"
	"optirand/internal/engine"
)

// benchLab caches circuits, fault lists and optimization results so
// that benchmark timings measure the intended phase only.
type benchLab struct {
	once    sync.Once
	circ    map[string]*optirand.Circuit
	faults  map[string][]optirand.Fault
	optimal map[string]*optirand.OptimizeResult
}

var lab benchLab

func (l *benchLab) init(b *testing.B) {
	b.Helper()
	l.once.Do(func() {
		l.circ = map[string]*optirand.Circuit{}
		l.faults = map[string][]optirand.Fault{}
		l.optimal = map[string]*optirand.OptimizeResult{}
		for _, bm := range optirand.Benchmarks() {
			c := bm.Build()
			l.circ[bm.Name] = c
			all := optirand.CollapsedFaults(c)
			probs := optirand.EstimateDetectProbs(c, all, optirand.UniformWeights(c))
			var live []optirand.Fault
			for i, f := range all {
				if probs[i] > 0 {
					live = append(live, f)
				}
			}
			l.faults[bm.Name] = live
		}
	})
}

func (l *benchLab) optimize(b *testing.B, name string) *optirand.OptimizeResult {
	b.Helper()
	l.init(b)
	if r, ok := l.optimal[name]; ok {
		return r
	}
	c := l.circ[name]
	r, err := runOptimize(c, l.faults[name], optirand.OptimizeOptions{Quantize: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	l.optimal[name] = r
	return r
}

// BenchmarkTable1RequiredLength measures the conventional-test-length
// computation (ANALYSIS + SORT + NORMALIZE) per circuit — the content
// of the paper's Table 1.
func BenchmarkTable1RequiredLength(b *testing.B) {
	lab.init(b)
	for _, bm := range optirand.Benchmarks() {
		c := lab.circ[bm.Name]
		faults := lab.faults[bm.Name]
		w := optirand.UniformWeights(c)
		b.Run(bm.PaperName, func(b *testing.B) {
			var n float64
			for i := 0; i < b.N; i++ {
				probs := optirand.EstimateDetectProbs(c, faults, w)
				n = optirand.RequiredTestLength(probs, optirand.DefaultConfidence).N
			}
			b.ReportMetric(n, "N_conv")
		})
	}
}

// BenchmarkTable2ConventionalSim measures the conventional-pattern
// fault-simulation campaigns of Table 2.
func BenchmarkTable2ConventionalSim(b *testing.B) {
	lab.init(b)
	for _, bm := range optirand.MarkedBenchmarks() {
		c := lab.circ[bm.Name]
		faults := lab.faults[bm.Name]
		w := optirand.UniformWeights(c)
		b.Run(bm.PaperName, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res := runCampaign(b, local, weighted(c, faults, w, bm.SimPatterns, 1987, 0))
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "cov%")
		})
	}
}

// BenchmarkTable3Optimize measures the OPTIMIZE procedure per circuit —
// the content of Table 3 (and the timing basis of Table 5).
func BenchmarkTable3Optimize(b *testing.B) {
	lab.init(b)
	for _, bm := range optirand.MarkedBenchmarks() {
		c := lab.circ[bm.Name]
		faults := lab.faults[bm.Name]
		b.Run(bm.PaperName, func(b *testing.B) {
			var last *optirand.OptimizeResult
			for i := 0; i < b.N; i++ {
				r, err := runOptimize(c, faults, optirand.OptimizeOptions{Quantize: 0.05})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.InitialN, "N_conv")
			b.ReportMetric(last.FinalN, "N_opt")
		})
	}
}

// BenchmarkTable4OptimizedSim measures the optimized-pattern campaigns
// of Table 4 (optimization excluded from the timing).
func BenchmarkTable4OptimizedSim(b *testing.B) {
	lab.init(b)
	for _, bm := range optirand.MarkedBenchmarks() {
		c := lab.circ[bm.Name]
		faults := lab.faults[bm.Name]
		opt := lab.optimize(b, bm.Name)
		b.Run(bm.PaperName, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				res := runCampaign(b, local, weighted(c, faults, opt.Weights, bm.SimPatterns, 1987, 0))
				cov = res.Coverage()
			}
			b.ReportMetric(100*cov, "cov%")
		})
	}
}

// BenchmarkTable5OptimizeCPU isolates the per-analysis cost that
// dominates the paper's Table 5: one full testability analysis on the
// largest marked circuit.
func BenchmarkTable5OptimizeCPU(b *testing.B) {
	lab.init(b)
	c := lab.circ["s2"]
	faults := lab.faults["s2"]
	w := optirand.UniformWeights(c)
	an := optirand.NewAnalyzer(c)
	probs := make([]float64, len(faults))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb one weight so the analyzer cannot skip work.
		w[i%len(w)] = 0.4 + 0.2*float64(i%2)
		an.Run(w)
		an.DetectProbsInto(faults, probs)
	}
}

// BenchmarkFig2CoverageCurve measures the S1 coverage-curve generation
// of Figure 2 (both weight sets, 12,000 patterns, sampled every 500).
func BenchmarkFig2CoverageCurve(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	opt := lab.optimize(b, "s1")
	uniform := optirand.UniformWeights(c)
	b.ResetTimer()
	var covConv, covOpt float64
	for i := 0; i < b.N; i++ {
		conv := runCampaign(b, local, weighted(c, faults, uniform, 12000, 1987, 500))
		o := runCampaign(b, local, weighted(c, faults, opt.Weights, 12000, 1987, 500))
		covConv, covOpt = conv.Coverage(), o.Coverage()
	}
	b.ReportMetric(100*covConv, "conv_cov%")
	b.ReportMetric(100*covOpt, "opt_cov%")
}

// BenchmarkAppendixWeights measures the full optimized-weight
// generation for the appendix circuits (C2670, C7552) on the 0.05 grid.
func BenchmarkAppendixWeights(b *testing.B) {
	lab.init(b)
	for _, name := range []string{"c2670", "c7552"} {
		c := lab.circ[name]
		faults := lab.faults[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runOptimize(c, faults, optirand.OptimizeOptions{Quantize: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations -----------------------------------------------------

// BenchmarkAblationIncrementalAnalysis compares OPTIMIZE with the
// cone-limited incremental signal-probability update (the paper §5.1's
// efficiency claim) against full recomputation.
func BenchmarkAblationIncrementalAnalysis(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"incremental", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := runOptimize(c, faults, optirand.OptimizeOptions{
					DisableIncremental: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHardFaultSubset compares the bound-based NORMALIZE
// (evaluating only the nf hardest faults, paper §4 observation (1))
// against direct evaluation of the full objective.
func BenchmarkAblationHardFaultSubset(b *testing.B) {
	lab.init(b)
	c := lab.circ["s2"]
	faults := lab.faults["s2"]
	probs := optirand.EstimateDetectProbs(c, faults, optirand.UniformWeights(c))
	b.Run("normalize-bounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optirand.RequiredTestLength(probs, optirand.DefaultConfidence)
		}
	})
	b.Run("direct-full-sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			requiredDirect(probs, optirand.DefaultConfidence)
		}
	})
}

// BenchmarkAblationNewtonVsBisection compares the Newton iteration of
// eq. (15) against derivative bisection inside MINIMIZE.
func BenchmarkAblationNewtonVsBisection(b *testing.B) {
	lab.init(b)
	c := lab.circ["c7552"]
	faults := lab.faults["c7552"]
	for _, mode := range []struct {
		name   string
		bisect bool
	}{{"newton", false}, {"bisection", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := runOptimize(c, faults, optirand.OptimizeOptions{
					UseBisection: mode.bisect,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationQuantization reports the test-length cost of
// snapping the optimized weights to the paper's 0.05 appendix grid.
func BenchmarkAblationQuantization(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	for _, mode := range []struct {
		name string
		grid float64
	}{{"continuous", 0}, {"grid-0.05", 0.05}} {
		b.Run(mode.name, func(b *testing.B) {
			var n float64
			for i := 0; i < b.N; i++ {
				r, err := runOptimize(c, faults, optirand.OptimizeOptions{Quantize: mode.grid})
				if err != nil {
					b.Fatal(err)
				}
				n = r.FinalN
			}
			b.ReportMetric(n, "N_opt")
		})
	}
}

// BenchmarkAblationMultiDistribution compares single-distribution
// optimization against the §5.3 partitioned extension on the divider.
func BenchmarkAblationMultiDistribution(b *testing.B) {
	lab.init(b)
	c := lab.circ["s2"]
	faults := lab.faults["s2"]
	b.Run("single", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			r, err := runOptimize(c, faults, optirand.OptimizeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n = r.FinalN
		}
		b.ReportMetric(n, "N_opt")
	})
	b.Run("multi-3", func(b *testing.B) {
		var n float64
		for i := 0; i < b.N; i++ {
			m, err := optirand.OptimizeMultiDistribution(c, faults, 3, optirand.OptimizeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			n = m.MixtureN
		}
		b.ReportMetric(n, "N_mix")
	})
}

// BenchmarkAblationHybridTopOff compares pure optimized-random testing
// against the §5.2 hybrid (random + PODEM top-off) on S1, reporting
// achieved coverage.
func BenchmarkAblationHybridTopOff(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	opt := lab.optimize(b, "s1")
	b.Run("random-only-12000", func(b *testing.B) {
		var cov float64
		for i := 0; i < b.N; i++ {
			res := runCampaign(b, local, weighted(c, faults, opt.Weights, 12000, 42, 0))
			cov = res.Coverage()
		}
		b.ReportMetric(100*cov, "cov%")
	})
	b.Run("hybrid-2000+topoff", func(b *testing.B) {
		var cov float64
		var patterns int
		for i := 0; i < b.N; i++ {
			h := optirand.HybridTest(c, faults, opt.Weights, 2000, 42, 4096)
			cov = h.Coverage()
			patterns = h.RandomPatterns + h.TopOffPatterns
		}
		b.ReportMetric(100*cov, "cov%")
		b.ReportMetric(float64(patterns), "patterns")
	})
}

// BenchmarkATPGThroughput measures raw PODEM speed over the full
// collapsed fault list of the comparator.
func BenchmarkATPGThroughput(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := optirand.GenerateTests(c, faults, 4096)
		if res.Detected == 0 {
			b.Fatal("ATPG produced nothing")
		}
	}
}

// BenchmarkEstimators compares the three ANALYSIS providers the paper
// names (PROTEST-style analytic, STAFAN counting, exact BDD) on one
// circuit where all are feasible.
func BenchmarkEstimators(b *testing.B) {
	lab.init(b)
	c := lab.circ["c880"]
	faults := lab.faults["c880"]
	w := optirand.UniformWeights(c)
	b.Run("analytic-COP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optirand.EstimateDetectProbs(c, faults, w)
		}
	})
	b.Run("stafan-256w", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optirand.NewStafanEstimator(c, 256, 1).DetectProbs(w, faults)
		}
	})
	b.Run("exact-bdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optirand.ExactDetectProbs(c, faults, w)
		}
	})
}

// BenchmarkFaultSimulatorThroughput measures raw fault-simulation speed
// (pattern-faults per second) on the multiplier, the gate-richest
// benchmark.
func BenchmarkFaultSimulatorThroughput(b *testing.B) {
	lab.init(b)
	c := lab.circ["c6288"]
	faults := lab.faults["c6288"]
	w := optirand.UniformWeights(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCampaign(b, local, weighted(c, faults, w, 1024, uint64(i), 0))
	}
}

// --- Parallel engine -----------------------------------------------

// BenchmarkCampaignWorkers compares serial against fault-sharded
// parallel campaign throughput on the larger generated circuits. The
// results are bit-identical at every worker count (enforced by the
// equivalence suites in internal/sim and internal/core); only the wall
// clock may differ.
func BenchmarkCampaignWorkers(b *testing.B) {
	lab.init(b)
	for _, name := range []string{"c6288", "s2"} {
		c := lab.circ[name]
		faults := lab.faults[name]
		w := optirand.UniformWeights(c)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", name, workers), func(b *testing.B) {
				r := optirand.NewRunner(optirand.WithSimWorkers(workers))
				var cov float64
				for i := 0; i < b.N; i++ {
					res := runCampaign(b, r, weighted(c, faults, w, 2048, 1987, 0))
					cov = res.Coverage()
				}
				b.ReportMetric(100*cov, "cov%")
				b.ReportMetric(2048*float64(len(faults))*float64(b.N)/b.Elapsed().Seconds(), "patfaults/s")
			})
		}
	}
}

// BenchmarkOptimizeWorkers compares the serial OPTIMIZE loop against
// the concurrent-PREPARE variant (the two cofactor analyses of each
// coordinate overlap; results are bit-identical).
func BenchmarkOptimizeWorkers(b *testing.B) {
	lab.init(b)
	c := lab.circ["s1"]
	faults := lab.faults["s1"]
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var n float64
			for i := 0; i < b.N; i++ {
				r, err := runOptimize(c, faults, optirand.OptimizeOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				n = r.FinalN
			}
			b.ReportMetric(n, "N_opt")
		})
	}
}

// BenchmarkEngineSweep measures the campaign engine's task fan-out: the
// four marked circuits × two weightings × four seeds on pools of
// varying width.
func BenchmarkEngineSweep(b *testing.B) {
	lab.init(b)
	sweep := &engine.Sweep{BaseSeed: 1987, Repetitions: 4, Patterns: 1024}
	for _, bm := range optirand.MarkedBenchmarks() {
		c := lab.circ[bm.Name]
		uniform := optirand.UniformWeights(c)
		skew := optirand.UniformWeights(c)
		for i := range skew {
			skew[i] = 0.15 + 0.7*float64(i%4)/3
		}
		sweep.Circuits = append(sweep.Circuits, engine.SweepCircuit{
			Name:    bm.Name,
			Circuit: c,
			Faults:  lab.faults[bm.Name],
			Weightings: []engine.Weighting{
				{Name: "uniform", Sets: [][]float64{uniform}},
				{Name: "skewed", Sets: [][]float64{skew}},
			},
		})
	}
	tasks := sweep.Tasks()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(context.Background(), tasks, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(tasks)), "tasks")
		})
	}
}

// requiredDirect is the naive O(|F|·log N) version of the test-length
// computation, used as the ablation baseline for NORMALIZE.
func requiredDirect(probs []float64, confidence float64) float64 {
	// Direct bisection over the full objective; mirrors
	// testlen.Required but stays in the benchmark package to keep the
	// comparison honest (no internal shortcuts).
	q := -math.Log(confidence)
	objective := func(n float64) float64 {
		j := 0.0
		for _, p := range probs {
			j += math.Exp(-n * p)
		}
		return j
	}
	if objective(0) <= q {
		return 0
	}
	hi := 1.0
	for objective(hi) > q {
		hi *= 2
	}
	lo := hi / 2
	for i := 0; i < 100 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if objective(mid) <= q {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
