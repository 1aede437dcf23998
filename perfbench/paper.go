package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"optirand"
)

// paperCircuits are the marked circuits the paper workload cycles
// through in equal shares. S2 is left out: its fault-universe build
// alone takes seconds and would dominate every op that holds it.
var paperCircuits = []string{"s1", "c2670", "c7552"}

// paperSeed is the campaign seed `experiments` uses by default. The
// run's seed only orders the ops, so every run of the workload does the
// same work and reports the same coverage.
const paperSeed = 1987

var paperWorkload = &workload{
	name:   "paper",
	rate:   19,
	minOps: 30,
	setups: 9,
	setup:  setupPaper,
}

// paperOps is the seeded op list: op i runs the whole procedure on
// circuit paperOps[i]. Every circuit gets the same share.
func paperOps(seed uint64, n int) []int {
	n -= n % len(paperCircuits)
	ops := make([]int, n)
	for i := range ops {
		ops[i] = i % len(paperCircuits)
	}
	r := newRand(seed, 1)
	r.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

type paperCircuit struct {
	name     string
	text     string // .bench netlist, parsed again by every op
	patterns int    // the paper's Table-4 pattern budget
}

// paperResult is what an op returns that must repeat on its circuit.
type paperResult struct {
	weights    []float64
	table1N    float64
	finalN     float64
	detected   int
	faults     int
	coverage   float64
	analyses   int
	sweeps     int
	collapsed  int
	completed  bool
	circuitIdx int
}

type paperPass struct {
	circuits []paperCircuit
	ops      []int
	runner   *optirand.Runner
	results  []paperResult
}

func setupPaper(cfg passConfig) (pass, error) {
	p := &paperPass{ops: paperOps(cfg.seed, cfg.ops)}
	for _, name := range paperCircuits {
		b, ok := optirand.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("paper: unknown circuit %s", name)
		}
		var sb strings.Builder
		if err := optirand.WriteBench(&sb, b.Build()); err != nil {
			return nil, fmt.Errorf("paper: write %s: %w", name, err)
		}
		p.circuits = append(p.circuits, paperCircuit{name: name, text: sb.String(), patterns: b.SimPatterns})
	}
	// The settings `experiments -workers 2` uses: two campaign workers,
	// (2+3)/4 = 1 fault-shard worker, and a two-way parallel optimizer.
	p.runner = optirand.NewRunner(optirand.WithWorkers(2), optirand.WithSimWorkers(1), optirand.WithSeed(paperSeed))
	return p, nil
}

func (p *paperPass) run(ctx context.Context, tr *tracer) (*outcome, error) {
	o := &outcome{}
	p.results = make([]paperResult, len(p.ops))
	start := time.Now()
	for i, ci := range p.ops {
		o.attempted++
		t := tr.forOp(i)
		t0 := time.Now()
		res, err := p.op(ctx, t, i, ci)
		if err != nil {
			o.failed++
			continue
		}
		o.add(time.Since(t0), t != nil)
		o.coverage = append(o.coverage, res.coverage)
		p.results[i] = *res
	}
	o.wall = time.Since(start)
	return o, nil
}

// op runs the paper's procedure once: parse → collapsed faults →
// Table-1 analysis and test length → OPTIMIZE → Table-4 campaign.
func (p *paperPass) op(ctx context.Context, tr *tracer, i, ci int) (*paperResult, error) {
	pc := &p.circuits[ci]
	root := tr.begin("op", i, 0)
	defer root.end()

	s := tr.begin("bench.parse", i, root.id)
	c, err := optirand.ParseBenchString(pc.text)
	s.end()
	if err != nil {
		return nil, err
	}

	s = tr.begin("fault.universe", i, root.id)
	faults := optirand.CollapsedFaults(c)
	s.end()

	// Table 1: conventional-test detection probabilities; faults the
	// analysis proves undetectable leave the campaign's fault list.
	s = tr.begin("testability.analysis", i, root.id)
	probs := optirand.EstimateDetectProbs(c, faults, optirand.UniformWeights(c))
	live := make([]optirand.Fault, 0, len(faults))
	for k, f := range faults {
		if probs[k] > 0 {
			live = append(live, f)
		}
	}
	s.end()

	s = tr.begin("testlen.normalize", i, root.id)
	t1 := optirand.RequiredTestLength(probs, optirand.DefaultConfidence)
	s.end()

	s = tr.begin("core.optimize", i, root.id)
	opt, err := p.runner.Optimize(ctx, optirand.OptimizeSpec{
		Circuit: c,
		Faults:  live,
		Options: optirand.OptimizeOptions{Confidence: optirand.DefaultConfidence, Quantize: 0.05, Workers: 2},
	})
	s.end()
	if err != nil {
		return nil, err
	}

	s = tr.begin("sim.campaign", i, root.id)
	cov, err := p.runner.Campaign(ctx, optirand.CampaignSpec{
		Label:    pc.name,
		Circuit:  c,
		Faults:   live,
		Source:   optirand.Weights(opt.Weights),
		Patterns: pc.patterns,
		Seed:     paperSeed,
	})
	s.end()
	if err != nil {
		return nil, err
	}
	return &paperResult{
		weights: opt.Weights, table1N: t1.N, finalN: opt.FinalN,
		detected: cov.Detected, faults: cov.TotalFaults, coverage: cov.Coverage(),
		analyses: opt.Analyses, sweeps: opt.Sweeps, collapsed: len(faults),
		completed: true, circuitIdx: ci,
	}, nil
}

// check requires every op on a circuit to return the same weights, the
// same test lengths and the same campaign outcome.
func (p *paperPass) check(context.Context) error {
	first := make(map[int]*paperResult)
	for i := range p.results {
		r := &p.results[i]
		if !r.completed {
			continue
		}
		f, ok := first[r.circuitIdx]
		if !ok {
			first[r.circuitIdx] = r
			continue
		}
		if !slices.Equal(r.weights, f.weights) || r.table1N != f.table1N || r.finalN != f.finalN ||
			r.detected != f.detected || r.faults != f.faults {
			return fmt.Errorf("paper: op %d on %s differs from the circuit's first op (N %g/%g vs %g/%g, detected %d vs %d)",
				i, paperCircuits[r.circuitIdx], r.table1N, r.finalN, f.table1N, f.finalN, r.detected, f.detected)
		}
	}
	return nil
}

func (p *paperPass) layers(o *outcome, tr *tracer) map[string]float64 {
	var collapsed, analyses, sweeps, n float64
	for i := range p.results {
		if r := &p.results[i]; r.completed {
			collapsed += float64(r.collapsed)
			analyses += float64(r.analyses)
			sweeps += float64(r.sweeps)
			n++
		}
	}
	m := map[string]float64{
		"fault.collapsed_faults": collapsed / n,
		"core.analyses":          analyses / n,
		"core.sweeps":            sweeps / n,
	}
	st := tr.selfTimes()
	for _, name := range []string{"bench.parse", "fault.universe", "testability.analysis", "testlen.normalize", "core.optimize", "sim.campaign"} {
		m[name+"_ms"] = meanMs(st, name)
	}
	return m
}

func (p *paperPass) close() error { return p.runner.Close() }

// meanMs is the mean duration of the spans called name (0 if none).
func meanMs(st map[string]*layerStat, name string) float64 {
	if s, ok := st[name]; ok {
		return s.MeanMs
	}
	return 0
}
