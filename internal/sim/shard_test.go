package sim

import (
	"testing"

	"optirand/internal/fault"
	"optirand/internal/gen"
)

// uniformWeights returns the 0.5 vector for c.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5
	}
	return w
}

// shardCounts are the pattern-shard counts every equivalence test
// exercises: serial, even, odd/prime (uneven batch ranges), and far
// more shards than any test's batch count (clamping).
func shardCounts() []int {
	return []int{1, 2, 3, 5, 8, 64}
}

// TestRunCampaignPatternShardsEquivalence asserts that pattern-range
// sharding is bit-identical to the serial campaign on every generated
// benchmark circuit, for every tested shard count.
func TestRunCampaignPatternShardsEquivalence(t *testing.T) {
	const (
		nPatterns = 960 // 15 batches
		curveStep = 200
		seed      = 1987
	)
	for _, b := range gen.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c := b.Build()
			faults := fault.New(c).Reps
			weights := uniformWeights(c.NumInputs())
			ref := runWeighted(c, faults, weights, nPatterns, seed, curveStep, serial)
			for _, sh := range shardCounts() {
				got := runWeighted(c, faults, weights, nPatterns, seed, curveStep, CampaignConfig{Workers: 1, PatternShards: sh})
				equalCampaigns(t, b.Name, ref, got)
				if t.Failed() {
					t.Fatalf("shards=%d diverged from serial", sh)
				}
			}
		})
	}
}

// TestPatternShardsPartialFinalBatch pins the partial-final-batch
// mask: a budget that is not a multiple of 64 puts a short batch at
// the end of the LAST range, and budgets shorter than one batch
// degenerate to a single range.
func TestPatternShardsPartialFinalBatch(t *testing.T) {
	b, _ := gen.ByName("c880")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := uniformWeights(c.NumInputs())
	for _, n := range []int{77, 130, 63, 64, 65, 1} {
		ref := runWeighted(c, faults, weights, n, 11, 10, serial)
		for _, sh := range []int{2, 3, 7} {
			got := runWeighted(c, faults, weights, n, 11, 10, CampaignConfig{Workers: 1, PatternShards: sh})
			equalCampaigns(t, "partial-batch", ref, got)
			if t.Failed() {
				t.Fatalf("n=%d shards=%d diverged", n, sh)
			}
		}
	}
}

// TestPatternShardsMoreShardsThanBatches: shard counts beyond the
// batch count clamp to one range per batch.
func TestPatternShardsMoreShardsThanBatches(t *testing.T) {
	b, _ := gen.ByName("c432")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := uniformWeights(c.NumInputs())
	ref := runWeighted(c, faults, weights, 100, 5, 0, serial) // 2 batches
	got := runWeighted(c, faults, weights, 100, 5, 0, CampaignConfig{Workers: 1, PatternShards: 7})
	equalCampaigns(t, "clamped-shards", ref, got)
}

// TestPatternShardsEdgeCases covers the degenerate inputs: empty
// fault lists and zero/negative budgets.
func TestPatternShardsEdgeCases(t *testing.T) {
	b, _ := gen.ByName("c432")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := uniformWeights(c.NumInputs())
	cases := []struct {
		name     string
		faults   []fault.Fault
		patterns int
	}{
		{"empty-faults", nil, 100},
		{"zero-patterns", faults, 0},
		{"negative-patterns", faults, -3},
		{"tiny-fault-list", faults[:2], 200},
	}
	for _, tc := range cases {
		ref := runWeighted(c, tc.faults, weights, tc.patterns, 3, 10, serial)
		for _, sh := range []int{2, 5} {
			got := runWeighted(c, tc.faults, weights, tc.patterns, 3, 10, CampaignConfig{Workers: 1, PatternShards: sh})
			equalCampaigns(t, tc.name, ref, got)
		}
	}
}

// TestPatternShardsDroppingAcrossRanges makes the cross-range drop
// handshake do real work — a long stream where almost every fault is
// detected in the first range, so later ranges drop nearly the whole
// list through the shared atomic map — and checks bit-identity. Run
// under -race this also certifies the handshake.
func TestPatternShardsDroppingAcrossRanges(t *testing.T) {
	b, _ := gen.ByName("c1908")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := uniformWeights(c.NumInputs())
	const n = 4096
	ref := runWeighted(c, faults, weights, n, 7, 512, serial)
	for _, sh := range []int{2, 4, 16} {
		got := runWeighted(c, faults, weights, n, 7, 512, CampaignConfig{Workers: 1, PatternShards: sh})
		equalCampaigns(t, "drop-handshake", ref, got)
	}
}

// TestSharedGoodMachineEquivalence asserts the shared-good-machine
// mode (one good simulation per lane group, DetectWords fanned out
// over fault shards with a per-group barrier) is bit-identical to the
// serial campaign, including with mixtures and for the Auto pick.
func TestSharedGoodMachineEquivalence(t *testing.T) {
	for _, name := range []string{"s1", "c880", "c2670"} {
		b, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		c := b.Build()
		faults := fault.New(c).Reps
		weights := uniformWeights(c.NumInputs())
		ref := runWeighted(c, faults, weights, 960, 1987, 200, serial)
		for _, w := range []int{2, 3, 7} {
			for _, mode := range []GoodMachine{GoodMachineShared, GoodMachineAuto} {
				got := RunCampaignConfig(c, faults, [][]float64{weights}, 1987, CampaignConfig{
					Patterns: 960, CurveStep: 200, Workers: w, GoodMachine: mode,
				})
				equalCampaigns(t, name, ref, got)
				if t.Failed() {
					t.Fatalf("workers=%d mode=%d diverged", w, mode)
				}
			}
		}
	}

	// Mixture rotation through the shared good machine.
	b, _ := gen.ByName("s1")
	c := b.Build()
	faults := fault.New(c).Reps
	n := c.NumInputs()
	mk := func(p float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = p
		}
		return w
	}
	sets := [][]float64{mk(0.5), mk(0.8), mk(0.2)}
	ref := RunCampaignConfig(c, faults, sets, 11, CampaignConfig{Patterns: 2000, CurveStep: 256, Workers: 1})
	got := RunCampaignConfig(c, faults, sets, 11, CampaignConfig{
		Patterns: 2000, CurveStep: 256, Workers: 4, GoodMachine: GoodMachineShared,
	})
	equalCampaigns(t, "s1-mixture-shared", ref, got)
}

// TestRunCampaignConfigMatrix sweeps the whole scheduling matrix on
// one circuit: every combination must reproduce the serial result.
func TestRunCampaignConfigMatrix(t *testing.T) {
	b, _ := gen.ByName("c880")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := uniformWeights(c.NumInputs())
	ref := runWeighted(c, faults, weights, 500, 3, 100, serial)
	for _, cfg := range []CampaignConfig{
		{Workers: 1},
		{Workers: 4},
		{Workers: 4, GoodMachine: GoodMachineShared},
		{Workers: 4, GoodMachine: GoodMachineAuto},
		{PatternShards: 4},
		{PatternShards: 4, Workers: 4}, // shards override fault-shard workers
	} {
		cfg.Patterns, cfg.CurveStep = 500, 100
		got := RunCampaignConfig(c, faults, [][]float64{weights}, 3, cfg)
		equalCampaigns(t, "config-matrix", ref, got)
		if t.Failed() {
			t.Fatalf("config %+v diverged", cfg)
		}
	}
}

// TestPickShared pins the Auto heuristic's shape: never shared for a
// single worker, always shared when explicitly requested with
// several, and monotone in circuit size for Auto.
func TestPickShared(t *testing.T) {
	big, _ := gen.ByName("s2") // 5000+ gates: duplicated good sims dominate
	small, _ := gen.ByName("c432")
	bc, sc := big.Build(), small.Build()
	if pickShared(bc, 1, GoodMachineShared) {
		t.Error("shared mode with one worker should fall back to the serial path")
	}
	if !pickShared(bc, 4, GoodMachineShared) {
		t.Error("explicit shared mode with several workers must engage")
	}
	if pickShared(bc, 4, GoodMachineReplay) {
		t.Error("replay mode must never engage the shared path")
	}
	if !pickShared(bc, 8, GoodMachineAuto) {
		t.Errorf("auto should pick shared for %d lines × 8 workers", bc.NumLines())
	}
	if pickShared(sc, 2, GoodMachineAuto) {
		t.Errorf("auto should keep replay for %d lines × 2 workers", sc.NumLines())
	}
}
