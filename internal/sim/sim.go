// Package sim provides bit-parallel logic simulation and event-driven
// stuck-at fault simulation (parallel-pattern single-fault propagation,
// PPSF, with fault dropping).
//
// One simulator word carries 64 independent input patterns; bit k of
// every signal word belongs to pattern k. The fault simulator reuses the
// good-machine values and propagates only the difference cone of each
// fault, which keeps per-fault cost proportional to the disturbed region
// rather than the whole circuit.
//
// Everything runs on a compiled circuit representation (see
// compiled.go): CSR-packed fanin/fanout arrays, a levelized order, and
// per-gate opcodes, built once per circuit structure and shared by
// every simulator of that circuit. The hot loops are flat — no
// closures, no per-event method lookups — and allocation-free in
// steady state; the zero-allocation tests pin both properties.
//
// There is one fault-simulation kernel, in wide.go: it batches W=4/8
// words per gate visit (RunWide/DetectWords) so one opcode dispatch,
// one CSR walk, and one worklist drain amortize across W pattern
// batches, and every campaign in campaign.go runs on it. Two
// propagation shortcuts are compiled into the gate flags: diff-word
// propagation through linear (parity-transparent) gates, which
// composes toggle masks instead of gathering fanins, and the
// flagSureOut dominator cut, which ends a sole-live-difference chase
// as soon as its detection is decided. This file keeps the single-word
// good machine (Run/Value), which the STAFAN estimator reads. The
// scalar reference.go is the ground truth both are tested against.
package sim

import (
	"fmt"

	"optirand/internal/circuit"
)

// Simulator evaluates the fault-free ("good") machine for 64 patterns at
// a time.
type Simulator struct {
	c   *circuit.Circuit
	cc  *Compiled
	val []uint64
	// wide holds the W-lane good-machine state (see wide.go), allocated
	// on first wide use so single-word users (STAFAN) never pay for it.
	wide *simWide
}

// NewSimulator returns a simulator for c with all values zero.
func NewSimulator(c *circuit.Circuit) *Simulator {
	cc := compiledFor(c)
	return &Simulator{
		c:   c,
		cc:  cc,
		val: make([]uint64, cc.nGates),
	}
}

// NewSimulatorLanes is NewSimulator with the wide-kernel word width W
// forced to lanes (4 or 8) instead of the compiler's choice. Every
// width is bit-identical; forcing exists for the per-width benchmarks
// and the differential suite.
func NewSimulatorLanes(c *circuit.Circuit, lanes int) *Simulator {
	if lanes != 4 && lanes != 8 {
		panic(fmt.Sprintf("sim: NewSimulatorLanes: width %d not supported (want 4 or 8)", lanes))
	}
	cc := compiledForLanes(c, lanes)
	return &Simulator{
		c:   c,
		cc:  cc,
		val: make([]uint64, cc.nGates),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *circuit.Circuit { return s.c }

// Lanes returns the wide-kernel word width W the circuit was compiled
// for — the number of 64-pattern words each RunWide/DetectWords call
// carries.
func (s *Simulator) Lanes() int { return s.cc.lanes }

// SetInputWord assigns the 64-pattern word of the primary input at
// position pos (index into Circuit().Inputs).
func (s *Simulator) SetInputWord(pos int, w uint64) {
	s.val[s.cc.inputs[pos]] = w
}

// SetInputs assigns all primary input words. len(words) must equal the
// number of primary inputs.
func (s *Simulator) SetInputs(words []uint64) {
	if len(words) != len(s.cc.inputs) {
		panic(fmt.Sprintf("sim: SetInputs: got %d words, want %d", len(words), len(s.cc.inputs)))
	}
	for pos, w := range words {
		s.val[s.cc.inputs[pos]] = w
	}
}

// Run evaluates every gate in topological order.
func (s *Simulator) Run() {
	cc := s.cc
	val := s.val
	nodes := cc.nodes
	for _, gi := range cc.order {
		g := int(gi)
		nd := &nodes[g]
		val[g] = evalGate(nd.op, nd.inv, cc.fanin[nd.faninAt:nd.faninAt+int32(nd.faninN)], val)
	}
}

// Value returns the 64-pattern word currently on gate g's output.
func (s *Simulator) Value(g int) uint64 { return s.val[g] }

// OutputWord returns the word of the i-th primary output.
func (s *Simulator) OutputWord(i int) uint64 { return s.val[s.cc.outputs[i]] }

// FaultSimulator propagates single stuck-at faults against the current
// wide good-machine state of an embedded Simulator (see DetectWords).
// Several FaultSimulators may share one Simulator: DetectWords only
// reads the good machine, so as long as nothing mutates it
// concurrently (SetInputsLane/RunWide), shared fault simulators may
// run in parallel — the shared good-machine campaign mode is built on
// exactly that.
type FaultSimulator struct {
	sim *Simulator
	cc  *Compiled

	// fval mirrors the good machine's lane groups (nGates*W words,
	// gate g at [g*W, (g+1)*W)) except on the gates of the current
	// fault's difference cone (listed in touched). The mirror makes
	// faulty gate evaluation identical to good evaluation — one
	// indexed load per fanin, no per-fanin validity check — at the
	// cost of an O(gates) copy once per lane group (goodGen tracks it)
	// and an O(cone) repair after each fault.
	fval    []uint64
	goodGen uint64 // the good machine's runGen the mirror was last refreshed at

	// qEpoch[g] is the last round gate g was enqueued in — the
	// worklist membership test, one generation counter instead of a
	// clear-per-round bitmap.
	qEpoch []uint32
	// gEpoch[g] is meaningful for fused macro sinks only (see
	// fuseXorMacros): the last round g was enqueued from a physical
	// pin, i.e. by a fault inside its macro. Such visits must gather
	// the sink's fanins — its tog group only ever carries macro-edge
	// (fused-input) toggles, which never fire on those rounds.
	gEpoch []uint32
	epoch  uint32
	// queue is the flat propagation worklist: level l's entries live
	// in queue[levelStart[l] : levelStart[l]+qLen[l]]. Every level's
	// segment is sized to its gate population (Compiled.levelStart),
	// so enqueueing is a single indexed store.
	queue   []int32
	qLen    []int32
	touched []int32 // gates whose faulty value differs this round
	// pending counts enqueued-but-undrained gates; the drain walks
	// levels upward until it reaches zero, so trailing empty levels
	// are never scanned and no per-enqueue maximum is maintained.
	pending int

	// tog (nGates*W words) accumulates, while a linear gate sits
	// enqueued, the XOR of the toggle groups (faulty XOR good) of the
	// changed fanins that enqueued it — one contribution per consuming
	// pin, so a driver read twice by a parity gate cancels itself.
	// For linear gates (flagLinear) that accumulated group IS the
	// output toggle, and the drain evaluates them as good^tog with no
	// fanin gather: the diff-word path.
	tog []uint64

	// Forced-pin activation scratch for gates with duplicated drivers:
	// identity fanin indices over gathered operand groups (actVal,
	// maxFanin*W words), so even that rare path flows through the same
	// lane evaluators.
	actIdx []int32
	actVal []uint64
}

// NewFaultSimulator wraps a good-machine simulator. The caller drives
// the good machine (SetInputsLane + RunWide) and then queries
// DetectWords per fault for the same lane group.
func NewFaultSimulator(s *Simulator) *FaultSimulator {
	cc := s.cc
	w := cc.lanes
	fs := &FaultSimulator{
		sim:    s,
		cc:     cc,
		fval:   make([]uint64, cc.nGates*w),
		qEpoch: make([]uint32, cc.nGates),
		gEpoch: make([]uint32, cc.nGates),
		queue:  make([]int32, cc.nGates),
		qLen:   make([]int32, cc.depth+1),
		tog:    make([]uint64, cc.nGates*w),
		actIdx: make([]int32, cc.maxFanin),
		actVal: make([]uint64, cc.maxFanin*w),
		// goodGen 0 == runGen 0 would skip the first refresh; force it.
		goodGen: ^uint64(0),
	}
	for i := range fs.actIdx {
		fs.actIdx[i] = int32(i)
	}
	return fs
}

// Good returns the embedded good-machine simulator.
func (fs *FaultSimulator) Good() *Simulator { return fs.sim }
