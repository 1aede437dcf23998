package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// workload is one traffic mix. Its op list is generated from the seed
// and has a fixed size: seconds × rate ops, so the work in a run never
// depends on how fast the host happens to be.
type workload struct {
	name string
	// rate is the nominal ops/s on a 2-vCPU reference host; it only
	// sizes the op list so a run lasts about --seconds there.
	rate   float64
	minOps int
	// setups is how many times a run sets up; setup_s is the median.
	setups int
	setup  func(cfg passConfig) (pass, error)
}

// opCount is the op-list size for a run of the given length.
func (w *workload) opCount(seconds float64) int {
	return max(w.minOps, int(math.Round(seconds*w.rate)))
}

// passConfig is what a workload's set-up receives.
type passConfig struct {
	seed uint64
	ops  int
	dir  string // private scratch directory inside the checkout
}

// pass is one set-up workload, ready to run its op list once.
type pass interface {
	// run executes the op list, timing every op; tr is nil when the
	// pass is untraced.
	run(ctx context.Context, tr *tracer) (*outcome, error)
	// check verifies, after the timed phase, every result run produced.
	check(ctx context.Context) error
	// layers computes the per-layer metrics of a finished traced run.
	layers(o *outcome, tr *tracer) map[string]float64
	close() error
}

// outcome is what one run of the op list produced.
type outcome struct {
	wall      time.Duration
	latMs     []float64 // one per completed op
	traced    []bool    // whether each completed op was traced
	attempted int
	failed    int
	coverage  []float64 // final fault coverage (0..1) of every campaign
}

// add records one completed op.
func (o *outcome) add(lat time.Duration, traced bool) {
	o.latMs = append(o.latMs, ms(lat))
	o.traced = append(o.traced, traced)
}

var workloads = []*workload{paperWorkload, sweepWorkload, serviceWorkload}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, sweep or service)", name)
}

// newRand returns the generator for one stream of a workload's inputs.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// splitmix64 is a bijective mixer: distinct inputs give distinct seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
