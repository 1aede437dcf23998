package sim

import (
	"testing"

	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/prng"
)

// wideWidths enumerates the kernel configurations under differential
// test: the compiler's automatic choice plus both forced widths.
var wideWidths = []int{0, 4, 8}

func newSimAt(c *circuit.Circuit, lanes int) *Simulator {
	if lanes == 0 {
		return NewSimulator(c)
	}
	return NewSimulatorLanes(c, lanes)
}

// checkWideReference drives nBatches seeded random 64-pattern batches
// (a multiple of 8, so every width sees whole lane groups) through the
// wide kernel at every width and asserts that
//   - every width yields the same DetectWords mask for every fault and
//     batch, on all 64 bits;
//   - the good machine's lanes and those masks agree with the scalar
//     reference semantics (Circuit.Eval, DetectsScalar) on every
//     bitStride-th pattern bit, the sampled bits rotating per batch.
func checkWideReference(t *testing.T, c *circuit.Circuit, faults []fault.Fault, seed uint64, nBatches, bitStride int) {
	t.Helper()
	rng := prng.New(seed)
	batches := make([][]uint64, nBatches)
	for b := range batches {
		batches[b] = make([]uint64, c.NumInputs())
		for i := range batches[b] {
			batches[b][i] = rng.Uint64()
		}
	}
	// sampled calls visit once per sampled bit of every batch, with in
	// holding that pattern's scalar input assignment.
	in := make([]bool, c.NumInputs())
	sampled := func(visit func(b, bit int)) {
		for b, words := range batches {
			for bit := b % bitStride; bit < 64; bit += bitStride {
				for i := range in {
					in[i] = words[i]>>uint(bit)&1 == 1
				}
				visit(b, bit)
			}
		}
	}

	var ref []uint64 // masks of the first width, ref[b*len(faults)+fi]
	for _, lanes := range wideWidths {
		s := newSimAt(c, lanes)
		fs := NewFaultSimulator(s)
		w := s.Lanes()
		masks := make([]uint64, nBatches*len(faults))
		good := make([][]uint64, nBatches) // good[b][g]: gate g's word in batch b
		var det [8]uint64
		for g := 0; g < nBatches; g += w {
			for l := 0; l < w; l++ {
				s.SetInputsLane(l, batches[g+l])
			}
			s.RunWide()
			for l := 0; l < w; l++ {
				good[g+l] = make([]uint64, c.NumGates())
				for gate := range good[g+l] {
					good[g+l][gate] = s.ValueLane(gate, l)
				}
			}
			for fi, f := range faults {
				fs.DetectWords(f, det[:w])
				for l := 0; l < w; l++ {
					masks[(g+l)*len(faults)+fi] = det[l]
				}
			}
		}
		sampled(func(b, bit int) {
			want := c.Eval(in)
			for gate, v := range want {
				if got := good[b][gate]>>uint(bit)&1 == 1; got != v {
					t.Fatalf("w=%d batch %d bit %d gate %d: RunWide %v, scalar %v", w, b, bit, gate, got, v)
				}
			}
		})
		if ref == nil {
			ref = masks
			continue
		}
		for i, m := range masks {
			if m != ref[i] {
				t.Fatalf("w=%d batch %d fault %v: DetectWords %x, at width %d %x",
					w, i/len(faults), faults[i%len(faults)].Describe(c), m, wideWidths[0], ref[i])
			}
		}
	}
	sampled(func(b, bit int) {
		for fi, f := range faults {
			got := ref[b*len(faults)+fi]>>uint(bit)&1 == 1
			if want := DetectsScalar(c, f, in); got != want {
				t.Fatalf("batch %d bit %d fault %v: DetectWords %v, scalar %v", b, bit, f.Describe(c), got, want)
			}
		}
	})
}

// someFaults picks up to n faults from the full universe with a
// deterministic stride, always keeping both polarities of the first
// and last sites.
func someFaults(all []fault.Fault, n int) []fault.Fault {
	if len(all) <= n {
		return all
	}
	out := make([]fault.Fault, 0, n)
	step := len(all) / n
	for i := 0; i < len(all) && len(out) < n; i += step {
		out = append(out, all[i])
	}
	out = append(out, all[len(all)-1])
	return out
}

// TestWideMatchesReference is the wide-kernel differential fuzz suite
// on the curated parity-heavy benchmarks: DetectWords at W=auto/4/8
// must agree across widths on every lane and with the scalar reference
// on a rotating bit sample. c499/c1355 exercise the diff-word linear
// path and the sureOut chain dominators end to end.
func TestWideMatchesReference(t *testing.T) {
	for _, name := range []string{"c432", "c499", "c880", "c1355"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, ok := gen.ByName(name)
			if !ok {
				t.Fatalf("benchmark %q missing from registry", name)
			}
			c := b.Build()
			faults := fault.New(c).All
			if testing.Short() || len(faults) > 600 {
				faults = someFaults(faults, 300)
			}
			checkWideReference(t, c, faults, xw_seed(name), 16, 8)
		})
	}
}

// xw_seed derives a per-circuit seed so the suites do not share
// pattern streams.
func xw_seed(name string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}

// TestWideMatchesReferenceRandom fuzzes the wide kernels on random
// circuits (odd fanins, duplicate pins, dangling cones, XOR trees)
// with random fault subsets and random seeds — the shapes where the
// chase shortcuts (linear pass-through, settlement stamps, sureOut
// chains) have historically been wrong before release.
func TestWideMatchesReferenceRandom(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		c := randomCircuit(seed, 6, 40)
		checkWideReference(t, c, fault.New(c).All, seed*131+7, 8, 4)
	}
	// Larger, deeper instances with fewer seeds.
	for seed := uint64(100); seed < 103; seed++ {
		c := randomCircuit(seed, 8, 120)
		checkWideReference(t, c, someFaults(fault.New(c).All, 120), seed, 8, 4)
	}
}

// siblingCircuit reproduces the frontier shape that once over-detected:
// a stem feeding both a linear gate p1 and p1's own linear consumer p2
// (reconvergent XNOR), with p1 fanning out further so the chase hands
// off to the worklist while p2 is already settled. The fix stamps
// chase-settled gates so the hand-off cannot re-enqueue p2 with a
// double-counted toggle.
func siblingCircuit() *circuit.Circuit {
	b := circuit.NewBuilder("sibling")
	s := b.Input("s")
	x1 := b.Input("x1")
	x2 := b.Input("x2")
	p1 := b.Xor("p1", s, x1)
	p2 := b.Xnor("p2", p1, x2, s) // consumes both the stem and p1
	q1 := b.And("q1", p1, x2)
	q2 := b.Or("q2", p1, x1)
	b.Output("o1", p2)
	b.Output("o2", q1)
	b.Output("o3", q2)
	return b.MustBuild()
}

// triangleCircuit reproduces the second settlement shape: f feeds p1
// and p2, p1 feeds p2, and p2's toggles cancel (Xor(f, Buf(f))), so p2
// settles dead during the chase; the chase then advances to p1 whose
// only consumer is the already-settled p2. A naive linear pass-through
// would revive the dead difference.
func triangleCircuit() *circuit.Circuit {
	b := circuit.NewBuilder("triangle")
	f := b.Input("f")
	x := b.Input("x")
	p1 := b.Buf("p1", f)
	p2 := b.Xor("p2", f, p1)
	// Keep p2 observable and mix in an unrelated input downstream so
	// good values are nondegenerate.
	o := b.Xor("o", p2, x)
	b.Output("o", o)
	return b.MustBuild()
}

// TestChaseSettlementRegressions pins the two reconvergence shapes
// above (plus their NAND-expanded variants via random trials) across
// every kernel width.
func TestChaseSettlementRegressions(t *testing.T) {
	for _, build := range []func() *circuit.Circuit{siblingCircuit, triangleCircuit} {
		c := build()
		checkWideReference(t, c, fault.New(c).All, 42, 16, 1)
	}
}

// TestRunWideZeroAllocs pins the wide good-machine path: after warm-up,
// RunWide and lane loading must not allocate at either forced width.
func TestRunWideZeroAllocs(t *testing.T) {
	b, _ := gen.ByName("c880")
	c := b.Build()
	for _, lanes := range []int{4, 8} {
		s := NewSimulatorLanes(c, lanes)
		rng := prng.New(11)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		for l := 0; l < lanes; l++ {
			s.SetInputsLane(l, words)
		}
		s.RunWide()
		if n := testing.AllocsPerRun(50, func() {
			for l := 0; l < lanes; l++ {
				s.SetInputsLane(l, words)
			}
			s.RunWide()
		}); n != 0 {
			t.Errorf("w=%d: RunWide allocates %.1f times per run, want 0", lanes, n)
		}
	}
}

// TestDetectWordsZeroAllocs pins the wide fault path on c880 (general
// logic) and c499 (parity cones — the diff-word/sureOut path): zero
// steady-state allocations per fault-list pass.
func TestDetectWordsZeroAllocs(t *testing.T) {
	for _, name := range []string{"c880", "c499"} {
		bm, _ := gen.ByName(name)
		c := bm.Build()
		faults := fault.New(c).Reps
		s := NewSimulator(c)
		fs := NewFaultSimulator(s)
		w := s.Lanes()
		rng := prng.New(13)
		words := make([]uint64, c.NumInputs())
		for l := 0; l < w; l++ {
			for i := range words {
				words[i] = rng.Uint64()
			}
			s.SetInputsLane(l, words)
		}
		s.RunWide()
		var det [8]uint64
		for _, f := range faults { // warm the worklist buckets and lane state
			fs.DetectWords(f, det[:])
		}
		if n := testing.AllocsPerRun(20, func() {
			for _, f := range faults {
				fs.DetectWords(f, det[:])
			}
		}); n != 0 {
			t.Errorf("%s: DetectWords allocates %.1f times per fault-list pass, want 0", name, n)
		}
	}
}

// TestEvalLanesOpcodeEdges unit-tests the lane evaluators against the
// scalar evalGate reference, per lane, across every opcode at the
// shapes the fused fast paths shadow: 0-fanin constants, 1-fanin
// buffers, 2-input fused ops, and 3/4-input n-ary reductions, under
// zero, full, and random inversion masks — including duplicated pins.
func TestEvalLanesOpcodeEdges(t *testing.T) {
	type shape struct {
		op    uint8
		fanin []int32
	}
	shapes := []shape{
		{opConst, nil},
		{opBuf, []int32{2}},
		{opAnd2, []int32{0, 3}},
		{opOr2, []int32{1, 2}},
		{opXor2, []int32{3, 3}}, // duplicated pin
		{opAnd, []int32{0, 1, 2}},
		{opOr, []int32{0, 1, 2, 3}},
		{opXor, []int32{0, 1, 2, 3}},
		{opXor, []int32{2, 2, 1}}, // duplicated pin in a reduction
	}
	rng := prng.New(99)
	invs := []uint64{0, ^uint64(0), rng.Uint64()}
	const nVals = 4 // gate ids 0..3 referenced by the shapes
	for _, w := range []int{4, 8} {
		val := make([]uint64, nVals*w)
		for i := range val {
			val[i] = rng.Uint64()
		}
		lane := make([]uint64, nVals)
		for _, sh := range shapes {
			for _, inv := range invs {
				var out [8]uint64
				evalLanesGate(w, sh.op, inv, sh.fanin, val, &out)
				for l := 0; l < w; l++ {
					for g := 0; g < nVals; g++ {
						lane[g] = val[g*w+l]
					}
					want := evalGate(sh.op, inv, sh.fanin, lane)
					if out[l] != want {
						t.Errorf("w=%d op=%d inv=%x lane=%d fanin=%v: lanes %x scalar %x",
							w, sh.op, inv, l, sh.fanin, out[l], want)
					}
				}
			}
		}
	}
}

// TestEvalGateWideReductions covers the n-ary scalar reductions at the
// edges the 2-input fused path shadows, against hand-computed truth.
func TestEvalGateWideReductions(t *testing.T) {
	val := []uint64{0b1100, 0b1010, 0b1111, 0}
	cases := []struct {
		op    uint8
		inv   uint64
		fanin []int32
		want  uint64
	}{
		{opConst, 0, nil, 0},
		{opConst, ^uint64(0), nil, ^uint64(0)},
		{opBuf, 0, []int32{0}, 0b1100},
		{opBuf, ^uint64(0), []int32{1}, ^uint64(0b1010)},
		{opAnd, 0, []int32{0, 1, 2}, 0b1000},
		{opAnd, ^uint64(0), []int32{0, 1, 3}, ^uint64(0)},
		{opOr, 0, []int32{0, 1, 3}, 0b1110},
		{opXor, 0, []int32{0, 1, 2}, 0b1001},
		{opXor, 0, []int32{0, 0, 1}, 0b1010}, // duplicate pins cancel
	}
	for _, tc := range cases {
		if got := evalGateWide(tc.op, tc.inv, tc.fanin, val); got != tc.want {
			t.Errorf("op=%d inv=%x fanin=%v: got %x want %x", tc.op, tc.inv, tc.fanin, got, tc.want)
		}
	}
}

// xorNandBlock appends the four-NAND expansion of XOR(a, x) — the
// shape fuseXorMacros detects (and the one gen uses for the C1355
// analogue).
func xorNandBlock(b *circuit.Builder, prefix string, a, x int) int {
	n1 := b.Nand(prefix+"n1", a, x)
	n2 := b.Nand(prefix+"n2", a, n1)
	n3 := b.Nand(prefix+"n3", n1, x)
	return b.Nand(prefix+"n4", n2, n3)
}

// countMacroSinks compiles c at the automatic width and counts fused
// XOR-macro sinks.
func countMacroSinks(c *circuit.Circuit) int {
	cc := compiledFor(c)
	n := 0
	for i := range cc.nodes {
		if cc.nodes[i].flags&flagMacroSink != 0 {
			n++
		}
	}
	return n
}

// TestXorMacroFusion pins the compile-time XOR-macro fusion: the
// canonical shapes must fuse (or, when spoiled, must not), and fused
// propagation must stay bit-identical to the scalar reference over the
// full fault universe — including faults at the macro's
// internal NANDs and on their pins, which exercise the physical-pin
// gather (gEpoch) path.
func TestXorMacroFusion(t *testing.T) {
	cases := []struct {
		name  string
		sinks int
		build func() *circuit.Circuit
	}{
		{"single", 1, func() *circuit.Circuit {
			b := circuit.NewBuilder("xm-single")
			a, x := b.Input("a"), b.Input("x")
			b.Output("o", xorNandBlock(b, "m.", a, x))
			return b.MustBuild()
		}},
		{"tree", 3, func() *circuit.Circuit {
			// Two leaf macros feeding a root macro; one leaf sink is
			// also a primary output, so its toggle both detects and
			// rides a macro edge onward.
			b := circuit.NewBuilder("xm-tree")
			in := b.Inputs("x", 4)
			s1 := xorNandBlock(b, "l.", in[0], in[1])
			s2 := xorNandBlock(b, "r.", in[2], in[3])
			b.Output("t", s1)
			b.Output("o", xorNandBlock(b, "u.", s1, s2))
			return b.MustBuild()
		}},
		{"sideload", 1, func() *circuit.Circuit {
			// A macro input with extra observable fanout: its list mixes
			// a plain edge with the tagged macro edge.
			b := circuit.NewBuilder("xm-side")
			a, x, y := b.Input("a"), b.Input("x"), b.Input("y")
			b.Output("o", xorNandBlock(b, "m.", a, x))
			b.Output("s", b.And("side", a, y))
			return b.MustBuild()
		}},
		{"spoiled", 0, func() *circuit.Circuit {
			// The middle NAND leaks to an extra observable consumer, so
			// the block is not a closed macro and must not fuse.
			b := circuit.NewBuilder("xm-spoiled")
			a, x := b.Input("a"), b.Input("x")
			n1 := b.Nand("n1", a, x)
			n2 := b.Nand("n2", a, n1)
			n3 := b.Nand("n3", n1, x)
			b.Output("o", b.Nand("n4", n2, n3))
			b.Output("leak", b.Buf("leak", n1))
			return b.MustBuild()
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if got := countMacroSinks(c); got != tc.sinks {
				t.Fatalf("fused %d macro sinks, want %d", got, tc.sinks)
			}
			checkWideReference(t, c, fault.New(c).All, xw_seed(tc.name), 16, 1)
		})
	}
}

// TestXorMacroFusionC1355 asserts the fusion actually lands on the
// NAND-expanded parity mesh it exists for: every 4-NAND XOR block of
// the C1355 analogue must fuse.
func TestXorMacroFusionC1355(t *testing.T) {
	b, ok := gen.ByName("c1355")
	if !ok {
		t.Fatal("benchmark c1355 missing from registry")
	}
	c := b.Build()
	got := countMacroSinks(c)
	// The analogue expands every XOR of the c499-class mesh; anything
	// below three figures means the detector regressed.
	if got < 100 {
		t.Fatalf("fused %d macro sinks on the c1355 analogue, want >= 100", got)
	}
	if c499, ok := gen.ByName("c499"); ok {
		if n := countMacroSinks(c499.Build()); n != 0 {
			t.Errorf("fused %d macro sinks on the c499 analogue, want 0 (its XORs are native)", n)
		}
	}
}
