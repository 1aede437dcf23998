package sim

import (
	"fmt"
	"sync"

	"optirand/internal/circuit"
)

// This file is the compiled circuit representation behind the
// simulation kernels: the gate graph is flattened once per circuit
// into CSR-packed fanin/fanout arrays, a levelized evaluation order,
// and per-gate opcodes, so the hot loops of Simulator.RunWide and
// FaultSimulator.DetectWords touch nothing but flat slices — no
// per-gate method lookups, closures, or pointer-chasing through Gate
// structs, and no steady-state allocations.

// Opcode bases. Together with a per-gate 64-bit inversion mask they
// are the package's single gate-evaluation truth source: every
// word-parallel evaluation — good machine, faulty machine, forced-pin
// fault activation — reduces to evalGate (or its per-lane form,
// evalLanes4/8) over one of these bases.
// Inverting types fold into the mask (NAND = opAnd + inverted output,
// NOT = opBuf + inverted, CONST1 = opConst + inverted), and the
// dominant two-input shape of each n-ary function gets a fused opcode
// with no reduction loop — which is what lets eleven gate types share
// a handful of straight-line cases.
const (
	opAnd2  uint8 = iota // exactly two fanins, conjunction
	opOr2                // exactly two fanins, disjunction
	opXor2               // exactly two fanins, parity
	opBuf                // one fanin, identity
	opAnd                // n-ary conjunction
	opOr                 // n-ary disjunction
	opXor                // n-ary parity
	opConst              // no fanin; the value is the inversion mask
)

// opcode compiles a gate type (with its fanin count) to its opcode
// base and inversion mask. Input gates are never evaluated (their
// words are applied, not computed), so they have no opcode.
func opcode(t circuit.GateType, nFanin int) (op uint8, inv uint64) {
	two := func(wide, fused uint8) uint8 {
		if nFanin == 2 {
			return fused
		}
		return wide
	}
	switch t {
	case circuit.Buf:
		return opBuf, 0
	case circuit.Not:
		return opBuf, ^uint64(0)
	case circuit.And:
		return two(opAnd, opAnd2), 0
	case circuit.Nand:
		return two(opAnd, opAnd2), ^uint64(0)
	case circuit.Or:
		return two(opOr, opOr2), 0
	case circuit.Nor:
		return two(opOr, opOr2), ^uint64(0)
	case circuit.Xor:
		return two(opXor, opXor2), 0
	case circuit.Xnor:
		return two(opXor, opXor2), ^uint64(0)
	case circuit.Const0:
		return opConst, 0
	case circuit.Const1:
		return opConst, ^uint64(0)
	}
	panic(fmt.Sprintf("sim: opcode: unexpected gate type %v", t))
}

// evalGate computes a gate function over the 64-pattern words that
// fanin indexes into val. It is the single evaluation truth source of
// the package (see the opcode constants): the single-word good machine
// calls it directly, and the lane evaluators of the fault kernel are
// tested against it per lane and per opcode.
// The fused straight-line opcodes live here so the whole function
// stays within the compiler's inlining budget — the n-ary reductions
// (loops disqualify a function from inlining) are delegated to
// evalGateWide. Each opcode's semantics is defined in exactly one
// place across the pair.
func evalGate(op uint8, inv uint64, fanin []int32, val []uint64) uint64 {
	if op <= opXor2 {
		a, b := val[fanin[0]], val[fanin[1]]
		switch op {
		case opAnd2:
			return (a & b) ^ inv
		case opOr2:
			return (a | b) ^ inv
		}
		return a ^ b ^ inv
	}
	return evalGateWide(op, inv, fanin, val)
}

// evalGateWide evaluates the single-input and n-ary reduction opcodes
// (see evalGate).
// Kept out of line so that evalGate itself stays inlinable — folding
// the loops back in would push it over the budget and reinstate a
// function call on the dominant two-input path.
//
//go:noinline
func evalGateWide(op uint8, inv uint64, fanin []int32, val []uint64) uint64 {
	var w uint64
	switch op {
	case opBuf:
		w = val[fanin[0]]
	case opAnd:
		w = ^uint64(0)
		for _, f := range fanin {
			w &= val[f]
		}
	case opOr:
		for _, f := range fanin {
			w |= val[f]
		}
	case opXor:
		for _, f := range fanin {
			w ^= val[f]
		}
	case opConst:
		// The constant's value is entirely in inv.
	}
	return w ^ inv
}

// Per-gate propagation flags (gateNode.flags). Both are properties of
// the circuit structure alone, computed once at compile time, and both
// exist to let the kernels skip work without changing a single result
// bit.
const (
	// flagLinear marks toggle-transparent gates: BUF/NOT and n-ary
	// XOR/XNOR. For these, faulty XOR good on the output is the XOR of
	// faulty XOR good over the fanins — inversion masks cancel — so
	// fault propagation can compose toggle masks linearly instead of
	// gathering fanin values (the diff-word path).
	flagLinear uint8 = 1 << iota
	// flagSureOut marks gates where a sole live fault difference IS the
	// final detection: the toggle mask reaching such a gate equals the
	// campaign-visible detect contribution exactly, so propagation can
	// stop there. True for primary outputs (every further toggle a
	// single source can produce is a subset of the one already
	// observed) and, inductively, for any gate whose single observable
	// consumer reads it on one pin and is a linear gate that is itself
	// sure — the fanout-free parity chains that dominate c499-class
	// cones, with the chain's last sure gate acting as the cone's
	// dominator.
	flagSureOut
	// flagMacroSink marks the output NAND of a fused four-NAND XOR
	// macro (see fuseXorMacros). The sink also carries flagLinear —
	// along its tagged macro edges it is exactly an XOR of the macro
	// inputs — but when a fault INSIDE the macro reaches it on a
	// physical pin, its NAND semantics are not linear in that pin, so
	// the kernels force a fanin gather for such visits.
	flagMacroSink
)

// Fanout CSR entries with the sign bit set are macro edges: fused
// diff-word shortcuts carrying a macro input's toggle straight to the
// macro's sink gate, skipping the internal NANDs (see fuseXorMacros).
// The low 31 bits hold the sink's gate index; plain entries are
// unchanged by the mask.
const (
	macroEdgeFlag int32 = -1 << 31
	edgeIndexMask int32 = 1<<31 - 1
)

// gateNode packs the per-gate static data the hot loops touch — the
// opcode, inversion mask, CSR spans, and packed level/worklist-slot —
// into one self-contained 32-byte record, so visiting a gate costs
// one cache line of metadata instead of a line per parallel array.
type gateNode struct {
	inv       uint64
	levelSlot uint64 // levelStart[level] in the high 32 bits, level in the low 32
	faninAt   int32
	fanoutAt  int32
	faninN    uint16
	fanoutN   uint16
	op        uint8
	flags     uint8 // flagLinear | flagSureOut
	_         [2]byte
}

// Compiled is the immutable flat form of one circuit structure. It
// holds no scratch state, so one Compiled is shared — concurrently —
// by every Simulator and FaultSimulator of a circuit, across
// campaigns, engine workers, and dist requests (see compiledFor).
type Compiled struct {
	nGates   int
	maxFanin int
	depth    int
	// lanes is the compile-time word width W of the wide kernels: each
	// wide gate visit evaluates lanes 64-pattern words, laid out as
	// contiguous [W]uint64 groups in flat slices (gate g's words at
	// [g*W, (g+1)*W)). Chosen by chooseLanes from the circuit shape;
	// the single-word good machine (Simulator.Run) ignores it.
	lanes int

	// CSR fanin values: gate g reads
	// fanin[nodes[g].faninAt : nodes[g].faninAt+nodes[g].faninN].
	fanin []int32
	// CSR fanout, pre-filtered to consumers whose cone reaches a
	// primary output (one entry per consuming pin, spans addressed
	// through nodes like fanin). Consumers outside that cone are
	// dropped at compile time — their values may flip, but nothing
	// observable ever depends on them, so fault propagation is
	// bit-identical without ever visiting them.
	fanout []int32

	order []int32 // levelized topological order, non-input gates only
	// levelStart[l] is the first slot of level l in a fault
	// simulator's flat worklist: levels partition the gates, so giving
	// every level a segment sized to its gate count makes enqueueing a
	// plain indexed store — no growth checks, no slice headers.
	levelStart []int32
	// nodes is the packed per-gate metadata (see gateNode) — the
	// single source of each gate's opcode, inversion mask, CSR spans,
	// and level/worklist slot.
	nodes []gateNode

	// dupFanin[g] reports that some driver feeds gate g on more than
	// one pin. Branch-fault activation normally forces a pin by poking
	// the driver's mirrored value; with a duplicated driver that would
	// force the sibling pins too, so those (rare) gates take a
	// gathered-operand activation instead.
	dupFanin []bool

	inputs  []int32 // gate index of each primary input, in input order
	outputs []int32 // observed gate indices
	isOut   []bool  // gate is a primary output

	// reachesOut[g] reports whether gate g's forward cone (including g
	// itself) contains a primary output — the static cone-of-influence
	// membership the fault simulator uses to cut dead propagation: a
	// fault effect entering a gate with reachesOut false can never be
	// observed, so it is neither propagated nor scanned.
	reachesOut []bool
}

// chooseLanes picks the wide kernels' word width W for a circuit.
// The wide fault simulator's working set is three lane arrays (good
// values, mirror, toggles) of nGates*W words, and a gather touches
// W*fanin words per visit — so W=8 is right while that stays
// comfortably inside a core's L2 and fanins are ordinary, and W=4 is
// the fallback for big netlists or extreme-fanin shapes where the
// wider gathers would thrash. Every width is bit-identical; this is
// purely a cost model.
func chooseLanes(nGates, maxFanin int) int {
	if nGates <= 1<<13 && maxFanin <= 16 {
		return 8
	}
	return 4
}

// Compile flattens c with the automatically chosen lane width. It is
// pure and deterministic; prefer compiledFor, which caches compiles by
// structural fingerprint.
func Compile(c *circuit.Circuit) *Compiled {
	return compileLanes(c, 0)
}

// compileLanes is Compile with a forced wide-kernel width (4 or 8);
// lanes == 0 selects chooseLanes. Forcing exists for the per-width
// benchmarks and differential tests.
func compileLanes(c *circuit.Circuit, lanes int) *Compiled {
	n := c.NumGates()
	cc := &Compiled{
		nGates:     n,
		depth:      c.Depth(),
		isOut:      make([]bool, n),
		reachesOut: make([]bool, n),
		dupFanin:   make([]bool, n),
	}
	// Build-time scratch; everything the kernels need lands in nodes.
	op := make([]uint8, n)
	inv := make([]uint64, n)
	level := make([]int32, n)
	faninStart := make([]int32, n+1)
	fanoutStart := make([]int32, n+1)
	nFanin := 0
	for g := 0; g < n; g++ {
		gate := &c.Gates[g]
		if gate.Type != circuit.Input {
			op[g], inv[g] = opcode(gate.Type, len(gate.Fanin))
		}
		if len(gate.Fanin) > cc.maxFanin {
			cc.maxFanin = len(gate.Fanin)
		}
		for i, f := range gate.Fanin {
			for _, e := range gate.Fanin[:i] {
				if e == f {
					cc.dupFanin[g] = true
				}
			}
		}
		nFanin += len(gate.Fanin)
		level[g] = int32(c.Level(g))
	}
	cc.fanin = make([]int32, 0, nFanin)
	for g := 0; g < n; g++ {
		faninStart[g] = int32(len(cc.fanin))
		for _, f := range c.Gates[g].Fanin {
			cc.fanin = append(cc.fanin, int32(f))
		}
	}
	faninStart[n] = int32(len(cc.fanin))

	cc.inputs = make([]int32, len(c.Inputs))
	for i, g := range c.Inputs {
		cc.inputs[i] = int32(g)
	}
	cc.outputs = make([]int32, len(c.Outputs))
	for i, g := range c.Outputs {
		cc.outputs[i] = int32(g)
		cc.isOut[g] = true
	}

	order := c.TopoOrder()
	cc.order = make([]int32, 0, n-len(c.Inputs))
	for _, g := range order {
		if c.Gates[g].Type != circuit.Input {
			cc.order = append(cc.order, int32(g))
		}
	}

	// reachesOut: reverse topological sweep over the forward edges.
	for i := len(order) - 1; i >= 0; i-- {
		g := order[i]
		r := cc.isOut[g]
		for _, p := range c.Fanout(g) {
			r = r || cc.reachesOut[p.Gate]
		}
		cc.reachesOut[g] = r
	}

	// Fanout lists, observable consumers only (see the fanout field
	// comment) — built as per-gate slices first so XOR-macro fusion can
	// rewrite them before they are flattened into the CSR.
	fanoutLists := make([][]int32, n)
	for g := 0; g < n; g++ {
		for _, p := range c.Fanout(g) {
			if cc.reachesOut[p.Gate] {
				fanoutLists[g] = append(fanoutLists[g], int32(p.Gate))
			}
		}
	}
	macroSink := fuseXorMacros(c, cc, order, op, inv, fanoutLists)

	cc.fanout = make([]int32, 0, nFanin)
	for g := 0; g < n; g++ {
		fanoutStart[g] = int32(len(cc.fanout))
		cc.fanout = append(cc.fanout, fanoutLists[g]...)
	}
	fanoutStart[n] = int32(len(cc.fanout))

	// levelStart: prefix sums of the per-level gate counts.
	cc.levelStart = make([]int32, cc.depth+2)
	for g := 0; g < n; g++ {
		cc.levelStart[level[g]+1]++
	}
	for l := 1; l < len(cc.levelStart); l++ {
		cc.levelStart[l] += cc.levelStart[l-1]
	}
	cc.nodes = make([]gateNode, n)
	for g := 0; g < n; g++ {
		faninN := faninStart[g+1] - faninStart[g]
		fanoutN := fanoutStart[g+1] - fanoutStart[g]
		if faninN > 0xffff || fanoutN > 0xffff {
			panic(fmt.Sprintf("sim: Compile: gate %d has %d fanins / %d observable fanouts; the compiled node caps both at 65535", g, faninN, fanoutN))
		}
		cc.nodes[g] = gateNode{
			inv:       inv[g],
			levelSlot: uint64(cc.levelStart[level[g]])<<32 | uint64(uint32(level[g])),
			faninAt:   faninStart[g],
			fanoutAt:  fanoutStart[g],
			faninN:    uint16(faninN),
			fanoutN:   uint16(fanoutN),
			op:        op[g],
		}
		// Linearity is a pure function of the opcode base: BUF/NOT and
		// the XOR family. Input gates keep op 0 but are never evaluated
		// or consumed as propagation targets, and they are excluded here
		// so the flag means exactly "toggle-transparent evaluated gate".
		if gate := &c.Gates[g]; gate.Type != circuit.Input {
			if o := op[g]; o == opBuf || o == opXor2 || o == opXor {
				cc.nodes[g].flags |= flagLinear
			}
		}
		// A fused macro sink is linear along its tagged macro edges
		// (it computes the XOR of the macro inputs); flagMacroSink
		// records that physical-pin visits must gather instead.
		if macroSink[g] {
			cc.nodes[g].flags |= flagLinear | flagMacroSink
		}
	}

	// flagSureOut: reverse topological sweep. A primary output is sure;
	// a gate whose single observable fanout entry (one consumer, one
	// pin) is a linear gate that is itself sure is sure too — a toggle
	// entering such a chain arrives at its output unchanged, whatever
	// the side inputs hold, because single-pin parity gates propagate
	// toggles unconditionally. The flag is only VALID for a sole live
	// difference (the kernels' chase paths); with several live
	// differences, reconvergence between their cones could cancel
	// toggles inside the chain's side inputs.
	for i := len(order) - 1; i >= 0; i-- {
		g := order[i]
		nd := &cc.nodes[g]
		if cc.isOut[g] {
			nd.flags |= flagSureOut
			continue
		}
		if nd.fanoutN == 1 {
			e := cc.fanout[nd.fanoutAt]
			p := e & edgeIndexMask
			// The single edge is toggle-transparent when the consumer is
			// linear — except a fused macro sink reached on a physical
			// pin, whose NAND semantics are only linear along tagged
			// macro edges. Macro inputs whose sole observable consumer
			// is their sink thus extend sure chains across the macro.
			if pf := cc.nodes[p].flags; pf&flagLinear != 0 && pf&flagSureOut != 0 &&
				(e < 0 || pf&flagMacroSink == 0) {
				nd.flags |= flagSureOut
			}
		}
	}

	cc.lanes = lanes
	if cc.lanes == 0 {
		cc.lanes = chooseLanes(n, cc.maxFanin)
	}
	return cc
}

// fuseXorMacros detects the four-NAND expansion of XOR —
//
//	n1 = NAND(a, b); n2 = NAND(a, n1); n3 = NAND(b, n1); n4 = NAND(n2, n3)
//
// with n1's observable fanout exactly {n2, n3}, n2's and n3's exactly
// {n4}, and none of n1..n3 a primary output — and rewires fault
// propagation to treat the whole block as the single XOR it computes:
// the edges a→{n1,n2} and b→{n1,n3} are dropped from a's and b's
// observable fanout lists and replaced by one tagged macro edge each,
// straight to n4 (sink index | macroEdgeFlag). n4 keeps its physical
// fanins {n2, n3} and gains flagLinear|flagMacroSink.
//
// The payoff is on NAND-expanded parity meshes (the c1355 class): a
// fault difference crossing K fused XORs updates K sink gates through
// the diff-word path instead of evaluating 4K NANDs, restoring the
// toggle-composition shortcut the expansion had destroyed.
//
// Soundness rests on a strict round separation. The internal gates'
// only drivers are a, b, and n1, so with the a→internal and b→internal
// edges gone, no fault OUTSIDE the macro can ever reach n1..n3: on
// external rounds the internals keep their good values and the sink's
// toggle is exactly Δa^Δb, which is what the macro edges deliver.
// Conversely a fault AT n1..n3 (or on one of their pins) propagates
// through the internals' own untouched fanout edges and is gathered at
// the sink from its physical fanins, which then hold exactly the
// faulty internal values — and on such rounds a and b never change
// (the circuit is acyclic), so no macro edge fires. Faults at n4's own
// pins force the physical fanins it kept. Either way every value is
// bit-identical to the unfused propagation.
//
// Detection runs on the pristine lists before any rewiring; the
// conditions above make claimed gates mutually exclusive between
// macros (an internal's constrained fanout cannot double as another
// macro's input or sink), and the topological scan order composes
// macros into trees: a sink's own fanout may well be another macro's
// input edge, fused in a later step of the same scan.
func fuseXorMacros(c *circuit.Circuit, cc *Compiled, order []int, op []uint8, inv []uint64, fanoutLists [][]int32) []bool {
	n := cc.nGates
	macroSink := make([]bool, n)
	internal := make([]bool, n)
	isNand2 := func(g int32) bool {
		gate := &c.Gates[g]
		return gate.Type != circuit.Input && op[g] == opAnd2 && inv[g] == ^uint64(0) &&
			len(gate.Fanin) == 2 && !cc.dupFanin[g]
	}
	type macro struct{ a, b, n1, n2, n3, n4 int32 }
	var macros []macro
	for _, gi := range order {
		n4 := int32(gi)
		if !isNand2(n4) || !cc.reachesOut[n4] || internal[n4] {
			continue
		}
		f4 := c.Gates[n4].Fanin
		n2, n3 := int32(f4[0]), int32(f4[1])
		if !isNand2(n2) || !isNand2(n3) || cc.isOut[n2] || cc.isOut[n3] ||
			internal[n2] || internal[n3] || macroSink[n2] || macroSink[n3] {
			continue
		}
		if len(fanoutLists[n2]) != 1 || fanoutLists[n2][0] != n4 ||
			len(fanoutLists[n3]) != 1 || fanoutLists[n3][0] != n4 {
			continue
		}
		// n2 = NAND(a, n1) and n3 = NAND(b, n1) share exactly the
		// middle NAND; pin order is free on both.
		f2, f3 := c.Gates[n2].Fanin, c.Gates[n3].Fanin
		for i2 := 0; i2 < 2; i2++ {
			n1 := int32(f2[i2])
			a := int32(f2[1-i2])
			var b int32 = -1
			if int32(f3[0]) == n1 {
				b = int32(f3[1])
			} else if int32(f3[1]) == n1 {
				b = int32(f3[0])
			}
			if b < 0 || a == b || internal[n1] || macroSink[n1] ||
				!isNand2(n1) || cc.isOut[n1] {
				continue
			}
			f1 := c.Gates[n1].Fanin
			if !(int32(f1[0]) == a && int32(f1[1]) == b) &&
				!(int32(f1[0]) == b && int32(f1[1]) == a) {
				continue
			}
			l1 := fanoutLists[n1]
			if len(l1) != 2 || (l1[0] != n2 || l1[1] != n3) && (l1[0] != n3 || l1[1] != n2) {
				continue
			}
			internal[n1], internal[n2], internal[n3] = true, true, true
			macroSink[n4] = true
			macros = append(macros, macro{a, b, n1, n2, n3, n4})
			break
		}
	}

	drop := func(list []int32, x int32) []int32 {
		for i, e := range list {
			if e == x {
				return append(list[:i], list[i+1:]...)
			}
		}
		panic(fmt.Sprintf("sim: fuseXorMacros: edge to gate %d missing from a macro input's fanout", x))
	}
	for _, m := range macros {
		fanoutLists[m.a] = append(drop(drop(fanoutLists[m.a], m.n1), m.n2), m.n4|macroEdgeFlag)
		fanoutLists[m.b] = append(drop(drop(fanoutLists[m.b], m.n1), m.n3), m.n4|macroEdgeFlag)
	}
	return macroSink
}

// compiledCacheMax bounds the process-wide compile cache. Test suites
// churn through thousands of throwaway circuits; when the bound is
// hit the cache is simply cleared — compiles are cheap relative to
// any campaign, only re-compiling a hot circuit costs anything, and a
// workload hot on >64 distinct circuits is already dominated by
// simulation time.
const compiledCacheMax = 64

var compiledCache = struct {
	sync.Mutex
	m map[string]*Compiled
}{m: make(map[string]*Compiled, 16)}

// compiledFor returns the shared compiled form of c, keyed by the
// circuit's canonical structural fingerprint — so engine workers and
// dist requests that decode their own *circuit.Circuit copies of one
// netlist all land on a single compile.
func compiledFor(c *circuit.Circuit) *Compiled {
	return compiledForLanes(c, 0)
}

// compiledForLanes is compiledFor with a forced lane width; width 0
// (the automatic choice) and each forced width get distinct cache
// entries, so benchmark runs that pin W never evict or alias the
// production artifact.
func compiledForLanes(c *circuit.Circuit, lanes int) *Compiled {
	fp := c.Fingerprint()
	if lanes != 0 {
		fp = fmt.Sprintf("%s#w%d", fp, lanes)
	}
	compiledCache.Lock()
	cc := compiledCache.m[fp]
	compiledCache.Unlock()
	if cc != nil {
		return cc
	}
	// Compile outside the lock: a duplicate concurrent compile of the
	// same circuit is idempotent and cheaper than serializing distinct
	// circuits' compiles behind one mutex.
	cc = compileLanes(c, lanes)
	compiledCache.Lock()
	if prior, ok := compiledCache.m[fp]; ok {
		cc = prior // keep the first one so callers share one artifact
	} else {
		if len(compiledCache.m) >= compiledCacheMax {
			compiledCache.m = make(map[string]*Compiled, 16)
		}
		compiledCache.m[fp] = cc
	}
	compiledCache.Unlock()
	return cc
}
