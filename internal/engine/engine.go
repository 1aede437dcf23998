// Package engine orchestrates fleets of fault-simulation campaigns:
// multi-circuit × multi-weighting × multi-seed sweeps fanned out over a
// bounded worker pool, with a second, nested level of parallelism
// available inside each campaign (fault-list sharding, see
// sim.CampaignConfig.Workers).
//
// Two properties make the engine safe to scale:
//
//   - Deterministic seeding. Every task's PRNG seed is derived from the
//     sweep's base seed and the task's own identity (circuit name,
//     weighting name, repetition index) via TaskSeed, never from
//     execution order. Adding circuits, reordering tasks, or changing
//     the worker count cannot change any individual campaign.
//
//   - Deterministic merging. Results are returned positionally
//     (result i belongs to task i) and each campaign is bit-identical
//     for every worker count, so an engine run is reproducible
//     end-to-end regardless of scheduling.
//
// The package is the single seam for scaling work: execution is
// abstracted behind the Backend interface, whose contract is exactly
// the two properties above. Local is the in-process pool; the dist
// package provides queue-backed and remote-service backends that the
// wire package's deterministic serialization makes possible. Sharding
// a sweep across processes, batching tasks per circuit, or backing Run
// with a network service all slot in behind the same Task/Backend
// contract.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"optirand/internal/adapt"
	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/prng"
	"optirand/internal/sim"
)

// Task is one fault-simulation campaign: a circuit, a fault list, one
// or more weight sets (one = plain weighted campaign, several = the
// §5.3 mixture rotation), a pattern budget, and a seed.
type Task struct {
	// Label identifies the task in reports ("c2670/optimized#3").
	Label string
	// Circuit is the netlist under test.
	Circuit *circuit.Circuit
	// Faults is the campaign's fault list (typically the collapsed
	// representatives).
	Faults []fault.Fault
	// WeightSets holds the per-input 1-probabilities; with several
	// sets, 64-pattern batches rotate through them.
	WeightSets [][]float64
	// Patterns is the pattern budget.
	Patterns int
	// Seed makes the campaign reproducible. Derive it with TaskSeed so
	// it depends on task identity, not execution order.
	Seed uint64
	// CurveStep > 0 samples the coverage curve every CurveStep
	// patterns.
	CurveStep int
	// Adaptive, when non-nil, runs the campaign as a block-adaptive
	// closed loop (see internal/adapt): blocks of patterns alternate
	// with re-weighting at block boundaries, under the config's
	// strategy. Unlike the scheduling knobs below it CHANGES the
	// result, so it is part of task identity and travels over the wire.
	Adaptive *adapt.Config
	// SimWorkers shards the fault list inside the campaign (<= 0 keeps
	// the campaign serial). Task-level and campaign-level parallelism
	// compose; for many small tasks prefer task-level only.
	SimWorkers int
	// SimShards > 1 shards the campaign's PATTERN stream into
	// contiguous batch ranges instead of sharding the fault list — the
	// right cut for small-fault/large-pattern campaigns. Overrides
	// SimWorkers when set. Like SimWorkers, it is a scheduling knob:
	// results are bit-identical for every value, and it does not
	// travel over the wire.
	SimShards int
	// GoodMachine selects the good-machine strategy for fault-sharded
	// campaigns (replay per worker, shared per batch, or an automatic
	// cost-based pick). A scheduling knob like SimWorkers: every mode
	// is bit-identical, and it does not travel over the wire.
	GoodMachine sim.GoodMachine
}

// TaskResult pairs a task with its campaign outcome.
type TaskResult struct {
	Task     *Task
	Campaign *sim.CampaignResult
	Elapsed  time.Duration
}

// Validate reports the first structural problem of t, if any. Every
// Backend must validate all tasks before starting any of them.
func (t *Task) Validate() error {
	if t.Circuit == nil {
		return fmt.Errorf("engine: task %q: nil circuit", t.Label)
	}
	if len(t.WeightSets) == 0 {
		return fmt.Errorf("engine: task %q: no weight sets", t.Label)
	}
	for k, ws := range t.WeightSets {
		if len(ws) != t.Circuit.NumInputs() {
			return fmt.Errorf("engine: task %q: weight set %d has %d entries, circuit has %d inputs",
				t.Label, k, len(ws), t.Circuit.NumInputs())
		}
	}
	if t.Adaptive != nil {
		if err := t.Adaptive.Validate(len(t.WeightSets)); err != nil {
			return fmt.Errorf("engine: task %q: %w", t.Label, err)
		}
	}
	return nil
}

// Execute runs the campaign in this process and reports the result.
// It is the unit of work every Backend ultimately performs, directly
// (Local) or on the far side of a wire (a remote service worker).
func (t *Task) Execute() TaskResult {
	start := time.Now()
	simWorkers := t.SimWorkers
	if simWorkers <= 0 {
		simWorkers = 1
	}
	cfg := sim.CampaignConfig{
		Patterns:      t.Patterns,
		CurveStep:     t.CurveStep,
		Workers:       simWorkers,
		PatternShards: t.SimShards,
		GoodMachine:   t.GoodMachine,
	}
	var res *sim.CampaignResult
	if t.Adaptive != nil {
		res = adapt.Run(t.Circuit, t.Faults, t.WeightSets, t.Seed, *t.Adaptive, cfg)
	} else {
		res = sim.RunCampaignConfig(t.Circuit, t.Faults, t.WeightSets, t.Seed, cfg)
	}
	return TaskResult{Task: t, Campaign: res, Elapsed: time.Since(start)}
}

// Backend executes task lists. Implementations must honor the engine's
// two contracts: results are positional (result i belongs to tasks[i],
// whatever the completion order or placement), and every task's
// campaign is bit-identical to a serial in-process run — so swapping
// backends (in-process pool, multi-process work queue, remote service)
// can never change a reported number. All tasks must be validated
// before any is started.
//
// Run must honor ctx: when the context is cancelled, still-queued work
// is abandoned promptly and Run returns ctx.Err(). Individual
// campaigns are not interruptible — a task a worker is mid-campaign on
// completes (its result is discarded), which bounds the cancellation
// latency by one campaign, not by the batch.
type Backend interface {
	Run(ctx context.Context, tasks []*Task) ([]TaskResult, error)
}

// StreamBackend is a Backend that can additionally deliver per-task
// results as they complete, before the whole batch is done — the
// execution contract behind streaming sweeps. fn is called serially
// from the submitting goroutine (implementations must not require it
// to be concurrency-safe), in completion order, with the task's batch
// index; the index mapping is exactly the positional contract of Run,
// so collecting RunEach results by index reproduces Run's slice. The
// contract holds across the network too: the dist package implements
// it in-process (Dispatcher) and over one streaming service request
// per batch (Service, consuming the daemon's per-task NDJSON sweep
// response).
type StreamBackend interface {
	Backend
	RunEach(ctx context.Context, tasks []*Task, fn func(i int, r TaskResult)) error
}

// Local is the in-process backend: a bounded pool of worker goroutines
// executing campaigns in this process. Workers <= 0 selects GOMAXPROCS.
// It is the reference implementation every other Backend is measured
// against.
type Local struct {
	Workers int
}

var _ StreamBackend = Local{}

// indexedResult pairs a completed task's result with its batch index.
type indexedResult struct {
	i int
	r TaskResult
}

// Run implements Backend on the in-process pool.
func (l Local) Run(ctx context.Context, tasks []*Task) ([]TaskResult, error) {
	results := make([]TaskResult, len(tasks))
	err := l.RunEach(ctx, tasks, func(i int, r TaskResult) {
		results[i] = r
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunEach implements StreamBackend on the in-process pool: fn observes
// each campaign as it completes. On cancellation the pool stops
// issuing work and RunEach returns ctx.Err(); workers already
// mid-campaign finish in the background (campaigns are not
// interruptible) and their results are discarded.
func (l Local) RunEach(ctx context.Context, tasks []*Task, fn func(i int, r TaskResult)) error {
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	if len(tasks) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for i, t := range tasks {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i, t.Execute())
		}
		return nil
	}

	idx := make(chan int)
	// Buffered to len(tasks): a worker finishing after cancellation
	// must never block on a channel nobody drains.
	done := make(chan indexedResult, len(tasks))
	for w := 0; w < workers; w++ {
		go func() {
			for i := range idx {
				done <- indexedResult{i, tasks[i].Execute()}
			}
		}()
	}
	go func() {
		defer close(idx)
		for i := range tasks {
			// Checked before the select: with a worker ready and the
			// context already cancelled both cases would be viable and
			// Go picks randomly — the explicit check keeps "abandoned
			// promptly" deterministic.
			if ctx.Err() != nil {
				return
			}
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for n := 0; n < len(tasks); n++ {
		select {
		case res := <-done:
			fn(res.i, res.r)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Run executes every task on an in-process pool of workers goroutines
// (<= 0 selects GOMAXPROCS). It is shorthand for Local{workers}.Run —
// see Backend for the execution and cancellation contract.
func Run(ctx context.Context, tasks []*Task, workers int) ([]TaskResult, error) {
	return Local{Workers: workers}.Run(ctx, tasks)
}

// TaskSeed derives a per-task seed from a base seed and the task's
// identity coordinates by chaining SplitMix64 steps. The derivation is
// a pure function of its arguments, so a task keeps its seed when the
// sweep grows, shrinks, or is reordered.
func TaskSeed(base uint64, coords ...uint64) uint64 {
	h := prng.New(base).Uint64()
	for _, c := range coords {
		h = prng.New(h ^ (c + 0x9e3779b97f4a7c15)).Uint64()
	}
	return h
}

// HashName folds a string into a TaskSeed coordinate (FNV-1a).
func HashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Weighting names one prepared weight configuration for a circuit.
type Weighting struct {
	// Name identifies the configuration ("uniform", "optimized", …).
	Name string
	// Sets is the configuration's weight-set list (usually length 1).
	Sets [][]float64
	// Adaptive, when non-nil, runs the configuration's campaigns as
	// block-adaptive closed loops (copied to Task.Adaptive).
	Adaptive *adapt.Config
}

// SweepCircuit is one circuit of a sweep together with its fault list
// and the weightings to campaign with.
type SweepCircuit struct {
	Name       string
	Circuit    *circuit.Circuit
	Faults     []fault.Fault
	Weightings []Weighting
	// Patterns overrides Sweep.Patterns for this circuit when > 0.
	Patterns int
}

// Sweep describes a multi-circuit × multi-weighting × multi-seed
// campaign grid.
type Sweep struct {
	// BaseSeed roots every task seed (see TaskSeed).
	BaseSeed uint64
	// Repetitions is the number of independently seeded campaigns per
	// (circuit, weighting) cell; values < 1 mean 1.
	Repetitions int
	// Patterns is the default per-campaign pattern budget.
	Patterns int
	// CurveStep, SimWorkers, SimShards, and GoodMachine are copied into
	// every task.
	CurveStep   int
	SimWorkers  int
	SimShards   int
	GoodMachine sim.GoodMachine
	Circuits    []SweepCircuit
}

// TaskSource streams a task list without requiring it to be
// materialized — the engine's seam for sweeps whose grids are too
// large to hold as a []*Task. Task i of the source is the task that
// would occupy slot i of the materialized list, so positional results
// collected from a streamed run reproduce a materialized run exactly.
//
// EachTask calls fn once per task in positional order and stops at the
// first error, which it returns. Every *Task handed to fn is freshly
// assembled and remains valid after fn returns (tasks are small
// structs referencing the source's shared circuits and fault lists),
// so a caller may retain a bounded window of them; retaining all of
// them just rebuilds the materialized list.
type TaskSource interface {
	NumTasks() int
	EachTask(fn func(i int, t *Task) error) error
}

// SliceSource adapts a materialized task list to the TaskSource seam.
type SliceSource []*Task

// NumTasks implements TaskSource.
func (s SliceSource) NumTasks() int { return len(s) }

// EachTask implements TaskSource.
func (s SliceSource) EachTask(fn func(i int, t *Task) error) error {
	for i, t := range s {
		if err := fn(i, t); err != nil {
			return err
		}
	}
	return nil
}

var (
	_ TaskSource = (*Sweep)(nil)
	_ TaskSource = SliceSource(nil)
)

// NumTasks returns the grid's task count without expanding it.
func (s *Sweep) NumTasks() int {
	reps := s.Repetitions
	if reps < 1 {
		reps = 1
	}
	n := 0
	for _, sc := range s.Circuits {
		n += len(sc.Weightings) * reps
	}
	return n
}

// EachTask streams the grid's tasks in circuit-major, weighting-middle,
// repetition-minor order — the generator form of Tasks, implementing
// TaskSource. Each task's seed is TaskSeed(BaseSeed, HashName(circuit),
// HashName(weighting), rep), a pure function of task identity, so the
// streamed and materialized expansions are identical task for task.
// Memory is constant in grid size: one task exists per fn call unless
// the caller retains it.
func (s *Sweep) EachTask(fn func(i int, t *Task) error) error {
	reps := s.Repetitions
	if reps < 1 {
		reps = 1
	}
	i := 0
	for _, sc := range s.Circuits {
		patterns := s.Patterns
		if sc.Patterns > 0 {
			patterns = sc.Patterns
		}
		for _, wt := range sc.Weightings {
			for r := 0; r < reps; r++ {
				t := &Task{
					Label:       fmt.Sprintf("%s/%s#%d", sc.Name, wt.Name, r),
					Circuit:     sc.Circuit,
					Faults:      sc.Faults,
					WeightSets:  wt.Sets,
					Patterns:    patterns,
					Seed:        TaskSeed(s.BaseSeed, HashName(sc.Name), HashName(wt.Name), uint64(r)),
					CurveStep:   s.CurveStep,
					Adaptive:    wt.Adaptive,
					SimWorkers:  s.SimWorkers,
					SimShards:   s.SimShards,
					GoodMachine: s.GoodMachine,
				}
				if err := fn(i, t); err != nil {
					return err
				}
				i++
			}
		}
	}
	return nil
}

// Tasks expands the grid into the materialized task list — EachTask
// collected into a slice. Prefer EachTask (or RunSource) for grids
// whose size makes a []*Task worth avoiding.
func (s *Sweep) Tasks() []*Task {
	tasks := make([]*Task, 0, s.NumTasks())
	s.EachTask(func(_ int, t *Task) error { //nolint:errcheck // fn never errors
		tasks = append(tasks, t)
		return nil
	})
	return tasks
}

// DefaultSourceWindow is the RunSource window when the caller passes
// one <= 0: large enough to keep a worker fleet busy and amortize
// per-window overhead, small enough that client memory stays constant
// in grid size.
const DefaultSourceWindow = 256

// RunSource executes a streamed task source on b in bounded windows of
// at most window tasks (<= 0 selects DefaultSourceWindow): at no point
// are more than window tasks materialized, whatever the source's size.
// fn observes every task's result with its source-positional index —
// collecting by index reproduces the materialized Run slice — and is
// called serially from this goroutine; within a window delivery is the
// backend's RunEach streaming order (completion order) when b is a
// StreamBackend, positional otherwise.
//
// The whole source is validated (one streaming pass, nothing retained)
// before any task executes, preserving the Backend contract; execution
// is bit-identical to running the materialized list because windowing
// is pure scheduling. On cancellation RunSource abandons unstarted
// windows and returns ctx.Err().
func RunSource(ctx context.Context, b Backend, src TaskSource, window int, fn func(i int, r TaskResult)) error {
	if window <= 0 {
		window = DefaultSourceWindow
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := src.EachTask(func(_ int, t *Task) error { return t.Validate() }); err != nil {
		return err
	}
	sb, streaming := b.(StreamBackend)
	buf := make([]*Task, 0, window)
	base := 0
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var err error
		if streaming {
			err = sb.RunEach(ctx, buf, func(j int, r TaskResult) { fn(base+j, r) })
		} else {
			var results []TaskResult
			if results, err = b.Run(ctx, buf); err == nil {
				for j, r := range results {
					fn(base+j, r)
				}
			}
		}
		base += len(buf)
		buf = buf[:0]
		return err
	}
	err := src.EachTask(func(_ int, t *Task) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		buf = append(buf, t)
		if len(buf) >= window {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}
