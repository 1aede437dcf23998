package sim

import (
	"testing"

	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/prng"
)

// TestCompiledMatchesReference is the differential suite on every
// generated benchmark circuit: the wide kernel's good-machine lanes and
// per-fault detection masks must agree with the scalar reference
// semantics (reference.go) on a stride sample of the fault universe and
// of the pattern bits, at every width. The full universes are pinned by
// TestGoldenDigests.
func TestCompiledMatchesReference(t *testing.T) {
	for _, b := range gen.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c := b.Build()
			checkWideReference(t, c, someFaults(fault.New(c).All, 64), 2026, 8, 16)
		})
	}
}

// TestCompiledMatchesReferenceRandom repeats the differential check on
// random circuits (odd fanins, dangling gates, XOR trees) that the
// curated benchmarks do not cover, over the full fault universe.
func TestCompiledMatchesReferenceRandom(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		c := randomCircuit(seed, 6, 40)
		checkWideReference(t, c, fault.New(c).All, seed*31, 8, 16)
	}
}

// TestCompiledCacheShared: two independently built copies of one
// netlist structure must land on one compiled artifact, and circuits
// differing only in names must share it too.
func TestCompiledCacheShared(t *testing.T) {
	b, _ := gen.ByName("c880")
	c1, c2 := b.Build(), b.Build()
	if c1 == c2 {
		t.Fatal("Build returned a shared circuit; the test needs independent copies")
	}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatal("independently built copies disagree on fingerprint")
	}
	if compiledFor(c1) != compiledFor(c2) {
		t.Error("independently built copies did not share one compiled artifact")
	}
	other, _ := gen.ByName("c432")
	if compiledFor(other.Build()) == compiledFor(c1) {
		t.Error("different structures shared a compiled artifact")
	}
}

// TestDetectWordZeroAllocs pins the steady-state allocation contract
// of the single-word good machine and of the fault kernel at both
// forced widths: after a warm-up pass over the fault list, neither Run
// nor a DetectWords pass may allocate.
func TestDetectWordZeroAllocs(t *testing.T) {
	b, _ := gen.ByName("c880")
	c := b.Build()
	faults := fault.New(c).Reps
	rng := prng.New(7)
	words := make([]uint64, c.NumInputs())
	for i := range words {
		words[i] = rng.Uint64()
	}
	s := NewSimulator(c)
	s.SetInputs(words)
	s.Run()
	if n := testing.AllocsPerRun(50, func() {
		s.SetInputs(words)
		s.Run()
	}); n != 0 {
		t.Errorf("Simulator.Run allocates %.1f times per run, want 0", n)
	}

	for _, lanes := range []int{4, 8} {
		s := NewSimulatorLanes(c, lanes)
		fs := NewFaultSimulator(s)
		for l := 0; l < lanes; l++ {
			s.SetInputsLane(l, words)
		}
		s.RunWide()
		var det [8]uint64
		for _, f := range faults { // warm the worklist and the mirror
			fs.DetectWords(f, det[:])
		}
		if n := testing.AllocsPerRun(50, func() {
			for _, f := range faults {
				fs.DetectWords(f, det[:])
			}
		}); n != 0 {
			t.Errorf("w=%d: DetectWords allocates %.1f times per fault-list pass, want 0", lanes, n)
		}
	}
}

// kernelBenchSetup builds one warmed batch for a benchmark circuit.
func kernelBenchSetup(b *testing.B, name string) (*circuit.Circuit, []fault.Fault, []uint64) {
	b.Helper()
	bm, ok := gen.ByName(name)
	if !ok {
		b.Fatalf("missing benchmark %s", name)
	}
	c := bm.Build()
	faults := fault.New(c).Reps
	rng := prng.New(1987)
	words := make([]uint64, c.NumInputs())
	for i := range words {
		words[i] = rng.Uint64()
	}
	return c, faults, words
}

// BenchmarkDetectWords measures the wide detection kernel at the
// compiler-chosen width: one iteration is a full fault-list pass
// against a fixed W-lane group, i.e. W 64-pattern batches.
func BenchmarkDetectWords(b *testing.B) {
	for _, name := range []string{"c880", "c2670", "c499", "c1355"} {
		b.Run(name, func(b *testing.B) {
			c, faults, words := kernelBenchSetup(b, name)
			s := NewSimulator(c)
			fs := NewFaultSimulator(s)
			rng := prng.New(1987)
			for l := 0; l < s.Lanes(); l++ {
				for i := range words {
					words[i] = rng.Uint64()
				}
				s.SetInputsLane(l, words)
			}
			s.RunWide()
			var det [8]uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range faults {
					fs.DetectWords(f, det[:])
				}
			}
		})
	}
}

// BenchmarkGoodRun measures the compiled single-word good machine.
func BenchmarkGoodRun(b *testing.B) {
	c, _, words := kernelBenchSetup(b, "c6288")
	s := NewSimulator(c)
	s.SetInputs(words)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}
