package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"optirand"
	"optirand/internal/engine"
)

// sweepCircuits is the grid's rows with their per-circuit budgets.
// Campaign cost is front-loaded (detected faults drop out), so the
// budgets only stretch the cheap circuits; c6288 costs ~100 ms per
// task at any budget and gets the smallest. Tasks run in grid order,
// so c6288 comes first: its long tasks start early and the short ones
// fill in at the end of each sweep.
var sweepCircuits = []struct {
	name     string
	patterns int
}{
	{"c6288", 256},   // the largest fault list after S2
	{"c1355", 16384}, // XOR macros expanded to NANDs
	{"c499", 16384},  // XOR-heavy parity network
	{"c7552", 32768}, // also swept under an adaptive bandit
}

const (
	sweepWorkers = 2
	sweepReps    = 1
)

var sweepWorkload = &workload{
	name:   "sweep",
	rate:   5.7,
	minOps: 6,
	setups: 5,
	setup:  setupSweep,
}

// sweepOps is the seeded op list: one fresh base seed per sweep call.
func sweepOps(seed uint64, n int) []uint64 {
	r := newRand(seed, 2)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = r.Uint64() | 1 // 0 would select the Runner's default seed
	}
	return seeds
}

// sweepTask is one executed task and the digest of its result bytes.
type sweepTask struct {
	task   *engine.Task
	digest [32]byte
}

type sweepPass struct {
	spec    optirand.SweepSpec
	ops     []uint64
	runner  *optirand.Runner
	tasks   []sweepTask
	elapsed map[string][]time.Duration // task time per circuit
	busy    time.Duration              // Σ TaskResult.Elapsed
	rounds  []float64                  // rounds of every adaptive task
}

// setupSweep builds every circuit, its fault list and its optimized
// weights: all the fault-universe and optimizer work of this workload
// happens here, not in the ops.
func setupSweep(cfg passConfig) (pass, error) {
	ctx := context.Background()
	local := optirand.NewRunner()
	defer local.Close()
	p := &sweepPass{ops: sweepOps(cfg.seed, cfg.ops), elapsed: make(map[string][]time.Duration)}
	p.spec = optirand.SweepSpec{Repetitions: sweepReps}
	for _, sc := range sweepCircuits {
		b, ok := optirand.BenchmarkByName(sc.name)
		if !ok {
			return nil, fmt.Errorf("sweep: unknown circuit %s", sc.name)
		}
		c := b.Build()
		faults := optirand.CollapsedFaults(c)
		opt, err := local.Optimize(ctx, optirand.OptimizeSpec{Circuit: c, Faults: faults,
			Options: optirand.OptimizeOptions{Quantize: 0.05, Workers: sweepWorkers}})
		if err != nil {
			return nil, fmt.Errorf("sweep: optimize %s: %w", sc.name, err)
		}
		uniform := optirand.UniformWeights(c)
		ws := []optirand.SweepWeighting{
			{Name: "uniform", Source: optirand.Weights(uniform)},
			{Name: "optimized", Source: optirand.Weights(opt.Weights)},
			{Name: "mixture", Source: optirand.Mixture(uniform, opt.Weights)},
		}
		if sc.name == "c7552" {
			ws = append(ws, optirand.SweepWeighting{Name: "bandit",
				Source: optirand.Adaptive(optirand.Mixture(uniform, opt.Weights), optirand.AdaptiveBandit(0))})
		}
		p.spec.Circuits = append(p.spec.Circuits, optirand.SweepCircuit{
			Name: sc.name, Circuit: c, Faults: faults, Weightings: ws, Patterns: sc.patterns,
		})
	}
	p.runner = optirand.NewRunner(optirand.WithWorkers(sweepWorkers))
	return p, nil
}

func (p *sweepPass) run(ctx context.Context, tr *tracer) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	for i, base := range p.ops {
		o.attempted++
		spec := p.spec
		spec.BaseSeed = base
		t := tr.forOp(i)
		t0 := time.Now()
		root := t.begin("op", i, 0)
		s := t.begin("engine.sweep", i, root.id)
		res, err := p.runner.Sweep(ctx, spec)
		s.end()
		root.end()
		if err != nil {
			o.failed++
			continue
		}
		o.add(time.Since(t0), t != nil)
		for _, r := range res {
			o.coverage = append(o.coverage, r.Campaign.Coverage())
			p.elapsed[circuitOf(r.Task)] = append(p.elapsed[circuitOf(r.Task)], r.Elapsed)
			p.busy += r.Elapsed
			if a := r.Campaign.Adaptive; a != nil {
				p.rounds = append(p.rounds, float64(len(a.Rounds)))
			}
			dg, err := digest(r.Campaign)
			if err != nil {
				return nil, err
			}
			p.tasks = append(p.tasks, sweepTask{task: r.Task, digest: dg})
		}
	}
	o.wall = time.Since(start)
	return o, nil
}

// circuitOf returns the sweep circuit a task belongs to: task labels
// are "<circuit>/<weighting>#<rep>".
func circuitOf(t *engine.Task) string {
	name, _, _ := strings.Cut(t.Label, "/")
	return name
}

// check replays every task on the serial in-process reference backend
// (engine.Local with one worker) and requires byte-identical results.
// Replays are independent, so one serial replayer runs per CPU.
func (p *sweepPass) check(ctx context.Context) error {
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := engine.Local{Workers: 1}
			for i := g; i < len(p.tasks); i += n {
				st := &p.tasks[i]
				res, err := ref.Run(ctx, []*engine.Task{st.task})
				if err != nil {
					errs[g] = fmt.Errorf("sweep: replay %s: %w", st.task.Label, err)
					return
				}
				dg, err := digest(res[0].Campaign)
				if err != nil {
					errs[g] = err
					return
				}
				if dg != st.digest {
					errs[g] = fmt.Errorf("sweep: task %s (seed %d) differs from its serial replay", st.task.Label, st.task.Seed)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (p *sweepPass) layers(o *outcome, tr *tracer) map[string]float64 {
	m := map[string]float64{
		"engine.sweep_ms": mean(o.latMs),
		"engine.busy_pct": 100 * p.busy.Seconds() / (o.wall.Seconds() * sweepWorkers),
		"adapt.rounds":    mean(p.rounds),
	}
	for _, sc := range sweepCircuits {
		var d []float64
		for _, e := range p.elapsed[sc.name] {
			d = append(d, ms(e))
		}
		m["sim.task_ms."+sc.name] = mean(d)
	}
	return m
}

func (p *sweepPass) close() error { return p.runner.Close() }

// digest hashes a campaign result's JSON encoding, the byte form the
// checks compare.
func digest(r *optirand.CampaignResult) ([32]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return [32]byte{}, fmt.Errorf("encode result: %w", err)
	}
	return sha256.Sum256(b), nil
}
