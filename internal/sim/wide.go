package sim

import (
	"fmt"

	"optirand/internal/fault"
)

// This file is the fault-simulation kernel: W=4/8 64-pattern words
// per gate visit (W is chosen at compile time, see Compiled.lanes),
// laid out as contiguous [W]uint64 lane groups in flat slices — gate
// g's words live at [g*W, (g+1)*W) — so the straight-line bitwise
// loops auto-vectorize and one opcode dispatch, one CSR fanin walk,
// and one worklist drain amortize across W pattern batches. The
// campaign loops in campaign.go run on RunWide and DetectWords.
//
// Propagation is activation, a chain chase with the linear
// pass-through and sureOut dominator cut, and a levelized drain with
// diff-word visits and chain re-entry, where "changed" means any lane
// differs. The mirror holds per-lane correct values throughout, so
// per-lane results are exact for every lane, for the same reason the
// 64 pattern bits inside one word are: union-cone propagation over
// independent columns.

// evalLanes8 evaluates one gate over 8-word lane groups: val is a flat
// lane array (gate g at [g*8, (g+1)*8)) and the result lands in out.
// Semantically it is evalGate applied per lane (TestEvalLanesOpcodeEdges
// pins that per opcode); the fixed-size array
// pointers let the compiler drop bounds checks and vectorize.
func evalLanes8(op uint8, inv uint64, fanin []int32, val []uint64, out *[8]uint64) {
	switch op {
	case opAnd2:
		a := (*[8]uint64)(val[int(fanin[0])*8:])
		b := (*[8]uint64)(val[int(fanin[1])*8:])
		for i := range out {
			out[i] = (a[i] & b[i]) ^ inv
		}
	case opOr2:
		a := (*[8]uint64)(val[int(fanin[0])*8:])
		b := (*[8]uint64)(val[int(fanin[1])*8:])
		for i := range out {
			out[i] = (a[i] | b[i]) ^ inv
		}
	case opXor2:
		a := (*[8]uint64)(val[int(fanin[0])*8:])
		b := (*[8]uint64)(val[int(fanin[1])*8:])
		for i := range out {
			out[i] = a[i] ^ b[i] ^ inv
		}
	case opBuf:
		a := (*[8]uint64)(val[int(fanin[0])*8:])
		for i := range out {
			out[i] = a[i] ^ inv
		}
	case opAnd:
		for i := range out {
			out[i] = ^uint64(0)
		}
		for _, f := range fanin {
			a := (*[8]uint64)(val[int(f)*8:])
			for i := range out {
				out[i] &= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opOr:
		for i := range out {
			out[i] = 0
		}
		for _, f := range fanin {
			a := (*[8]uint64)(val[int(f)*8:])
			for i := range out {
				out[i] |= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opXor:
		for i := range out {
			out[i] = 0
		}
		for _, f := range fanin {
			a := (*[8]uint64)(val[int(f)*8:])
			for i := range out {
				out[i] ^= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opConst:
		for i := range out {
			out[i] = inv // the constant's value is entirely in inv
		}
	}
}

// evalLanes4 is evalLanes8 over 4-word lane groups.
func evalLanes4(op uint8, inv uint64, fanin []int32, val []uint64, out *[4]uint64) {
	switch op {
	case opAnd2:
		a := (*[4]uint64)(val[int(fanin[0])*4:])
		b := (*[4]uint64)(val[int(fanin[1])*4:])
		for i := range out {
			out[i] = (a[i] & b[i]) ^ inv
		}
	case opOr2:
		a := (*[4]uint64)(val[int(fanin[0])*4:])
		b := (*[4]uint64)(val[int(fanin[1])*4:])
		for i := range out {
			out[i] = (a[i] | b[i]) ^ inv
		}
	case opXor2:
		a := (*[4]uint64)(val[int(fanin[0])*4:])
		b := (*[4]uint64)(val[int(fanin[1])*4:])
		for i := range out {
			out[i] = a[i] ^ b[i] ^ inv
		}
	case opBuf:
		a := (*[4]uint64)(val[int(fanin[0])*4:])
		for i := range out {
			out[i] = a[i] ^ inv
		}
	case opAnd:
		for i := range out {
			out[i] = ^uint64(0)
		}
		for _, f := range fanin {
			a := (*[4]uint64)(val[int(f)*4:])
			for i := range out {
				out[i] &= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opOr:
		for i := range out {
			out[i] = 0
		}
		for _, f := range fanin {
			a := (*[4]uint64)(val[int(f)*4:])
			for i := range out {
				out[i] |= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opXor:
		for i := range out {
			out[i] = 0
		}
		for _, f := range fanin {
			a := (*[4]uint64)(val[int(f)*4:])
			for i := range out {
				out[i] ^= a[i]
			}
		}
		for i := range out {
			out[i] ^= inv
		}
	case opConst:
		for i := range out {
			out[i] = inv
		}
	}
}

// evalLanesGate dispatches a gate evaluation to the compiled width,
// writing the w result words into out's first w slots. The w branch is
// perfectly predicted (constant per circuit); everything else is the
// specialized straight-line code above.
func evalLanesGate(w int, op uint8, inv uint64, fanin []int32, val []uint64, out *[8]uint64) {
	if w == 8 {
		evalLanes8(op, inv, fanin, val, out)
	} else {
		evalLanes4(op, inv, fanin, val, (*[4]uint64)(out[:4]))
	}
}

// simWide is the good machine's lane state, allocated on first wide
// use (wideState).
type simWide struct {
	val []uint64 // nGates*W lane words, gate g at [g*W, (g+1)*W)
	// runGen counts completed RunWide calls; fault simulators refresh
	// their mirrors lazily, once per lane group, against it.
	runGen uint64
}

func (s *Simulator) wideState() *simWide {
	if s.wide == nil {
		s.wide = &simWide{val: make([]uint64, s.cc.nGates*s.cc.lanes)}
	}
	return s.wide
}

// SetInputLane assigns the 64-pattern word of primary input pos in
// lane l — batch l of the wide group.
func (s *Simulator) SetInputLane(pos, lane int, w uint64) {
	sw := s.wideState()
	sw.val[int(s.cc.inputs[pos])*s.cc.lanes+lane] = w
}

// SetInputsLane assigns all primary input words of lane l. len(words)
// must equal the number of primary inputs.
func (s *Simulator) SetInputsLane(lane int, words []uint64) {
	if len(words) != len(s.cc.inputs) {
		panic(fmt.Sprintf("sim: SetInputsLane: got %d words, want %d", len(words), len(s.cc.inputs)))
	}
	sw := s.wideState()
	w := s.cc.lanes
	for pos, word := range words {
		sw.val[int(s.cc.inputs[pos])*w+lane] = word
	}
}

// RunWide evaluates every gate in topological order over all W lanes —
// one opcode dispatch and one CSR walk per gate for W batches.
func (s *Simulator) RunWide() {
	cc := s.cc
	sw := s.wideState()
	val := sw.val
	nodes := cc.nodes
	if cc.lanes == 8 {
		for _, gi := range cc.order {
			g := int(gi)
			nd := &nodes[g]
			evalLanes8(nd.op, nd.inv, cc.fanin[nd.faninAt:nd.faninAt+int32(nd.faninN)], val, (*[8]uint64)(val[g*8:]))
		}
	} else {
		for _, gi := range cc.order {
			g := int(gi)
			nd := &nodes[g]
			evalLanes4(nd.op, nd.inv, cc.fanin[nd.faninAt:nd.faninAt+int32(nd.faninN)], val, (*[4]uint64)(val[g*4:]))
		}
	}
	sw.runGen++
}

// ValueLane returns the lane-l word currently on gate g's output (as
// of the last RunWide).
func (s *Simulator) ValueLane(g, lane int) uint64 {
	return s.wideState().val[g*s.cc.lanes+lane]
}

// OutputLane returns the lane-l word of the i-th primary output.
func (s *Simulator) OutputLane(i, lane int) uint64 {
	return s.wideState().val[int(s.cc.outputs[i])*s.cc.lanes+lane]
}

// allLanesFull reports that every lane's detect mask is saturated.
func allLanesFull(det []uint64) bool {
	for _, d := range det {
		if d != ^uint64(0) {
			return false
		}
	}
	return true
}

// enqueueFanoutWide queues every observable consumer of gate g (the
// compiled fanout CSR holds exactly those). g's toggle group
// accumulates into each linear consumer's tog group, once per
// consuming pin, so the parity cancellation of duplicated drivers
// falls out of the CSR shape (non-linear consumers gather from the
// mirror and never read tog, so their accumulation is skipped). The
// two width-specialized bodies use array-pointer casts so the lane
// loops compile to straight-line, bounds-check-free code.
func (fs *FaultSimulator) enqueueFanoutWide(g int32) {
	cc := fs.cc
	nd := &cc.nodes[g]
	epoch := fs.epoch
	qEpoch, queue, qLen := fs.qEpoch, fs.queue, fs.qLen
	nodes := cc.nodes
	fanout := cc.fanout[nd.fanoutAt : nd.fanoutAt+int32(nd.fanoutN)]
	n := 0
	if cc.lanes == 8 {
		fg := (*[8]uint64)(fs.fval[int(g)*8 : int(g)*8+8])
		gg := (*[8]uint64)(fs.sim.wide.val[int(g)*8 : int(g)*8+8])
		var tg [8]uint64
		for l := 0; l < 8; l++ {
			tg[l] = fg[l] ^ gg[l]
		}
		for _, e := range fanout {
			p := e & edgeIndexMask // macro edges carry the sink in the low bits
			pn := &nodes[p]
			if qEpoch[p] == epoch {
				if pn.flags&flagLinear != 0 {
					tp := (*[8]uint64)(fs.tog[int(p)*8 : int(p)*8+8])
					for l := 0; l < 8; l++ {
						tp[l] ^= tg[l]
					}
				}
				continue
			}
			qEpoch[p] = epoch
			if e >= 0 && pn.flags&flagMacroSink != 0 {
				fs.gEpoch[p] = epoch // physical pin into a fused sink: force a gather
			}
			if pn.flags&flagLinear != 0 {
				*(*[8]uint64)(fs.tog[int(p)*8 : int(p)*8+8]) = tg
			}
			ls := pn.levelSlot
			lvl := int32(uint32(ls))
			queue[int32(ls>>32)+qLen[lvl]] = p
			qLen[lvl]++
			n++
		}
	} else {
		fg := (*[4]uint64)(fs.fval[int(g)*4 : int(g)*4+4])
		gg := (*[4]uint64)(fs.sim.wide.val[int(g)*4 : int(g)*4+4])
		var tg [4]uint64
		for l := 0; l < 4; l++ {
			tg[l] = fg[l] ^ gg[l]
		}
		for _, e := range fanout {
			p := e & edgeIndexMask
			pn := &nodes[p]
			if qEpoch[p] == epoch {
				if pn.flags&flagLinear != 0 {
					tp := (*[4]uint64)(fs.tog[int(p)*4 : int(p)*4+4])
					for l := 0; l < 4; l++ {
						tp[l] ^= tg[l]
					}
				}
				continue
			}
			qEpoch[p] = epoch
			if e >= 0 && pn.flags&flagMacroSink != 0 {
				fs.gEpoch[p] = epoch
			}
			if pn.flags&flagLinear != 0 {
				*(*[4]uint64)(fs.tog[int(p)*4 : int(p)*4+4]) = tg
			}
			ls := pn.levelSlot
			lvl := int32(uint32(ls))
			queue[int32(ls>>32)+qLen[lvl]] = p
			qLen[lvl]++
			n++
		}
	}
	fs.pending += n
}

// evalApplyWide evaluates gate p over the wide mirror; if any lane
// differs from good it applies the new group, stores the toggle lanes
// into t, appends p to touched, and returns true. On false, t holds
// zeros. The qEpoch stamp records that p's value now reflects every
// toggle applied to the mirror — even a dead difference absorbed its
// fanin edges, so pass-throughs must not re-walk them.
func (fs *FaultSimulator) evalApplyWide(p int32, pn *gateNode, t *[8]uint64) bool {
	cc := fs.cc
	w := cc.lanes
	fs.qEpoch[p] = fs.epoch
	fval := fs.fval
	var nv [8]uint64
	evalLanesGate(w, pn.op, pn.inv, cc.fanin[pn.faninAt:pn.faninAt+int32(pn.faninN)], fval, &nv)
	gg := fs.sim.wide.val[int(p)*w:]
	any := uint64(0)
	for l := 0; l < w; l++ {
		t[l] = nv[l] ^ gg[l]
		any |= t[l]
	}
	if any == 0 {
		return false
	}
	copy(fval[int(p)*w:int(p)*w+w], nv[:w])
	fs.touched = append(fs.touched, p)
	return true
}

// DetectWords fills det[:W] with the per-lane detection masks of fault
// f against the current wide good-machine state: bit k of det[l] is
// set when pattern k of lane l detects f, i.e. at least one primary
// output differs between the good and the faulty machine. The good
// machine must have been RunWide for the group first (len(det) must be
// at least W). Allocation-free in steady state.
func (fs *FaultSimulator) DetectWords(f fault.Fault, det []uint64) {
	cc := fs.cc
	w := cc.lanes
	det = det[:w]
	for l := range det {
		det[l] = 0
	}
	site := int32(f.Gate)
	if !cc.reachesOut[site] {
		return
	}
	sw := fs.sim.wide
	if sw == nil {
		panic("sim: DetectWords: RunWide has not been called on the good machine")
	}
	good := sw.val
	if fs.goodGen != sw.runGen {
		copy(fs.fval, good)
		fs.goodGen = sw.runGen
	}

	fs.touched = fs.touched[:0]
	fval := fs.fval

	forced := uint64(0)
	if f.Stuck == 1 {
		forced = ^uint64(0)
	}
	var nv [8]uint64
	g := int(site)
	nd := &cc.nodes[g]
	if f.IsStem() {
		for l := 0; l < w; l++ {
			nv[l] = forced
		}
	} else {
		// Activation of a branch fault: evaluate the site gate with pin
		// f.Pin forced. Nothing else of the faulty machine differs yet,
		// so the mirror holds good-machine groups everywhere — poking
		// the driver's mirrored group forces exactly this pin, through
		// the same lane evaluator as propagation. A driver feeding the
		// gate on several pins would leak onto its siblings, so those
		// (rare, precompiled) gates gather operands instead.
		lo, hi := nd.faninAt, nd.faninAt+int32(nd.faninN)
		if !cc.dupFanin[g] {
			drv := int(cc.fanin[lo+int32(f.Pin)])
			dg := fval[drv*w : drv*w+w]
			var save [8]uint64
			copy(save[:w], dg)
			for l := 0; l < w; l++ {
				dg[l] = forced
			}
			evalLanesGate(w, nd.op, nd.inv, cc.fanin[lo:hi], fval, &nv)
			copy(dg, save[:w])
		} else {
			n := int(hi - lo)
			for k := 0; k < n; k++ {
				src := int(cc.fanin[lo+int32(k)])
				copy(fs.actVal[k*w:k*w+w], good[src*w:src*w+w])
			}
			for l := 0; l < w; l++ {
				fs.actVal[int(f.Pin)*w+l] = forced
			}
			evalLanesGate(w, nd.op, nd.inv, fs.actIdx[:n], fs.actVal, &nv)
		}
	}
	var curT [8]uint64
	any := uint64(0)
	sg := good[g*w : g*w+w]
	for l := 0; l < w; l++ {
		curT[l] = nv[l] ^ sg[l]
		any |= curT[l]
	}
	if any == 0 {
		return // fault never activated in any lane of this group
	}
	copy(fval[g*w:g*w+w], nv[:w])
	fs.touched = append(fs.touched, site)

	// One epoch per propagation round: the chase stamps every gate it
	// evaluates into qEpoch so later shortcuts can tell a fresh gate
	// from one whose value already absorbed applied fanin toggles, and
	// the drain reuses the same stamps for queue dedup — so a
	// chase-settled gate is never re-queued (and never has toggles
	// double-counted into it).
	fs.epoch++
	if fs.epoch == 0 { // uint32 wrap: invalidate all stamps
		for i := range fs.qEpoch {
			fs.qEpoch[i] = 0
		}
		for i := range fs.gEpoch {
			fs.gEpoch[i] = 0
		}
		fs.epoch = 1
	}
	epoch := fs.epoch

	// Chain fast path: while the difference frontier stays narrow
	// (see chaseWide), follow it directly — level order is respected
	// by construction and the worklist machinery is never engaged.
	// Fanout-free chains and die-at-the-stem splits dominate these
	// netlists, so most propagation resolves right here; the drain
	// below also re-enters this path whenever its frontier narrows
	// back to one gate.
	a, b, live := fs.chaseWide(site, &curT, det)

	if live && !allLanesFull(det) {
		// The frontier fans out: fall back to levelized worklist
		// propagation. Every update flows forward, so enqueues land
		// only on levels above the one being drained (fanout edges
		// strictly increase level) and a level's segment is complete —
		// its count stable — by the time the loop reaches it. The
		// drain walks upward until nothing is pending; everything
		// enqueued is strictly downstream of the frontier, so the scan
		// starts just above it, and no frontier gate can re-enter the
		// queue (that would need a cycle). For a two-gate frontier the
		// chase returns the lower-level gate first, so the start level
		// covers both; b may consume a, but its chase stamp keeps a's
		// dispatch from re-queueing it.
		fs.enqueueFanoutWide(a)
		if b >= 0 {
			fs.enqueueFanoutWide(b)
		}
		lvl := int32(uint32(cc.nodes[a].levelSlot))
		var tmp [8]uint64
		for fs.pending > 0 {
			lvl++
			n := fs.qLen[lvl]
			if n == 0 {
				continue
			}
			fs.qLen[lvl] = 0
			fs.pending -= int(n)
			base := cc.levelStart[lvl]
			last := int32(-1)
			for _, gi := range fs.queue[base : base+n] {
				pd := &cc.nodes[gi]
				gg := good[int(gi)*w:]
				any := uint64(0)
				if pd.flags&flagLinear != 0 &&
					(pd.flags&flagMacroSink == 0 || fs.gEpoch[gi] != epoch) {
					// Diff-word visit: the accumulated toggle group IS
					// the output toggle — no fanin gather, and the new
					// group lands in the mirror directly (an unqueued
					// gate's mirror holds good values, so there is
					// nothing to preserve). A macro sink reached on a
					// physical pin this round (gEpoch) gathers instead —
					// the fault is inside its macro and tog carries
					// nothing.
					tg := fs.tog[int(gi)*w : int(gi)*w+w]
					for l := 0; l < w; l++ {
						any |= tg[l]
					}
					if any == 0 {
						continue
					}
					pf := fval[int(gi)*w : int(gi)*w+w]
					for l := 0; l < w; l++ {
						pf[l] = gg[l] ^ tg[l]
					}
					if cc.isOut[gi] {
						for l := 0; l < w; l++ {
							det[l] |= tg[l]
						}
					}
				} else {
					evalLanesGate(w, pd.op, pd.inv, cc.fanin[pd.faninAt:pd.faninAt+int32(pd.faninN)], fval, &tmp)
					for l := 0; l < w; l++ {
						any |= tmp[l] ^ gg[l]
					}
					if any == 0 {
						continue
					}
					copy(fval[int(gi)*w:int(gi)*w+w], tmp[:w])
					if cc.isOut[gi] {
						for l := 0; l < w; l++ {
							det[l] |= tmp[l] ^ gg[l]
						}
					}
				}
				fs.touched = append(fs.touched, gi)
				fs.enqueueFanoutWide(gi)
				last = gi
			}
			// Once every pattern of the group detects, propagating
			// further cannot change the result: stop, discarding
			// whatever is still queued.
			if allLanesFull(det) {
				for fs.pending > 0 {
					lvl++
					fs.pending -= int(fs.qLen[lvl])
					fs.qLen[lvl] = 0
				}
				break
			}
			// Chain re-entry: if exactly one gate is pending and the
			// last change has a single consumer, that consumer IS the
			// pending gate (every enqueued-undrained gate is in the
			// union of changed gates' consumers, which pending == 1
			// collapses to one). Pop it without touching the worklist
			// again and chase the chain; if the chase ends at a new
			// fan-out point, resume the drain from its level.
			if fs.pending == 1 && last >= 0 && cc.nodes[last].fanoutN == 1 {
				p := cc.fanout[cc.nodes[last].fanoutAt] & edgeIndexMask
				pd := &cc.nodes[p]
				pl := int32(uint32(pd.levelSlot))
				fs.qLen[pl] = 0
				fs.pending = 0
				gg := good[int(p)*w:]
				any := uint64(0)
				if pd.flags&flagLinear != 0 &&
					(pd.flags&flagMacroSink == 0 || fs.gEpoch[p] != epoch) {
					tg := fs.tog[int(p)*w:]
					for l := 0; l < w; l++ {
						tmp[l] = gg[l] ^ tg[l]
						any |= tg[l]
					}
				} else {
					evalLanesGate(w, pd.op, pd.inv, cc.fanin[pd.faninAt:pd.faninAt+int32(pd.faninN)], fval, &tmp)
					for l := 0; l < w; l++ {
						any |= tmp[l] ^ gg[l]
					}
				}
				if any == 0 {
					break // the only live difference died
				}
				copy(fval[int(p)*w:int(p)*w+w], tmp[:w])
				fs.touched = append(fs.touched, p)
				for l := 0; l < w; l++ {
					curT[l] = tmp[l] ^ gg[l]
				}
				var alive bool
				a, b, alive = fs.chaseWide(p, &curT, det)
				if !alive || allLanesFull(det) {
					break
				}
				fs.enqueueFanoutWide(a)
				if b >= 0 {
					fs.enqueueFanoutWide(b)
				}
				lvl = int32(uint32(cc.nodes[a].levelSlot))
			}
		}
	}

	// Repair the mirror.
	for _, gi := range fs.touched {
		copy(fval[int(gi)*w:int(gi)*w+w], good[int(gi)*w:int(gi)*w+w])
	}
}

// chaseWide follows the difference frontier while it stays narrow:
// one gate with one observable consumer (the fanout-free-chain case),
// or one gate with two consumers of which at most one keeps the
// difference alive (a stem whose other branch dies at a
// non-sensitized gate — the dominant stem shape in these netlists).
// The frontier carries a toggle group (curT, first W slots), "live"
// means any lane differs, and detections accumulate into det.
//
// The chase runs under the sole-live-difference invariant — every
// changed gate except the frontier has had all its consumers settle —
// which licenses three shortcuts the general drain cannot take. They
// apply per lane for the same reasons they apply per bit: lanes are
// independent columns, and the frontier is each lane's only live
// difference or a dead one.
//
//   - sureOut cut (dominator shortcut): a frontier carrying toggle
//     curT into a flagSureOut gate contributes exactly curT to the
//     detect mask and nothing downstream can add patterns beyond it
//     (every later toggle of a single source is a subset of curT), so
//     the round ends on the spot — primary outputs and the dominators
//     of fanout-free parity chains both stop here.
//   - linear pass-through: a single-pin linear consumer's new value is
//     good^curT by construction — no fanin gather. The shortcut is
//     only taken for gates not yet evaluated this round (no qEpoch
//     stamp): a gate the chase already gathered has absorbed the
//     applied toggles of its fanins, so re-walking an edge into it
//     (reconvergence through a sibling) would double-count — those
//     gates re-gather instead, which is exact against the mirror.
//   - parity self-cancellation: a linear consumer reading the frontier
//     on both pins receives curT^curT = 0 — the difference dies
//     without evaluating anything.
//
// It returns the one or two gates of the final frontier (b == -1 for
// none; a is the lower-level gate) and whether any lane is still
// live; callers must have applied the initial frontier's group to the
// mirror already, and must fall back to worklist propagation when two
// gates return.
func (fs *FaultSimulator) chaseWide(g int32, curT *[8]uint64, det []uint64) (a, b int32, live bool) {
	cc := fs.cc
	w := cc.lanes
	fval := fs.fval
	good := fs.sim.wide.val
	frontier := g
	nd := &cc.nodes[g]
	qEpoch, epoch := fs.qEpoch, fs.epoch
	for {
		if nd.flags&flagSureOut != 0 &&
			(cc.isOut[frontier] || qEpoch[cc.fanout[nd.fanoutAt]&edgeIndexMask] != epoch) {
			// Dominator cut: detection decided. A non-output sure gate
			// has exactly one consumer, the head of a fresh linear
			// chain to an output — but if that consumer was already
			// evaluated this round (a reconvergent sibling that
			// settled), its value absorbed this edge and the chain
			// claim is void: fall through and re-gather it instead.
			for l := 0; l < w; l++ {
				det[l] |= curT[l]
			}
			return frontier, -1, false
		}
		switch nd.fanoutN {
		case 0:
			return frontier, -1, false // ran off the end of the cone
		case 1:
			e := cc.fanout[nd.fanoutAt]
			p := e & edgeIndexMask
			pn := &cc.nodes[p]
			// The single edge is toggle-transparent when the consumer
			// is linear — except a fused macro sink reached on a
			// physical pin (the fault is inside its macro), which must
			// gather its fanins like any nonlinear gate.
			if pn.flags&flagLinear != 0 && (e < 0 || pn.flags&flagMacroSink == 0) {
				if qEpoch[p] != epoch {
					// Linear pass-through: the toggle group survives
					// unchanged, no gather. Skipped for gates already
					// evaluated this round (their value absorbed the
					// applied toggles — re-walking the edge would
					// double-count).
					qEpoch[p] = epoch
					gg := good[int(p)*w:]
					pf := fval[int(p)*w : int(p)*w+w]
					for l := 0; l < w; l++ {
						pf[l] = gg[l] ^ curT[l]
					}
					fs.touched = append(fs.touched, p)
					frontier, nd = p, pn
					continue
				}
				if e < 0 {
					// Macro edge into a sink already queued this round:
					// its physical fanins do not carry this toggle, so a
					// gather would drop it — hand the frontier to the
					// worklist, whose enqueue composes macro-edge toggles
					// into the sink's tog group.
					return frontier, -1, true
				}
			}
			if !fs.evalApplyWide(p, pn, curT) {
				return frontier, -1, false // the only live difference died
			}
			frontier, nd = p, pn
		case 2:
			e1, e2 := cc.fanout[nd.fanoutAt], cc.fanout[nd.fanoutAt+1]
			if e1 < 0 || e2 < 0 {
				// Macro edges on a split frontier: hand both to the
				// worklist, whose enqueue dispatches tagged edges
				// exactly (tog for sinks, queue for the rest).
				return frontier, -1, true
			}
			p1, p2 := e1, e2
			if p1 == p2 {
				// One consumer reading the stem on two pins.
				pn := &cc.nodes[p1]
				if pn.flags&flagLinear != 0 {
					return frontier, -1, false // curT^curT: parity cancels
				}
				if !fs.evalApplyWide(p1, pn, curT) {
					return frontier, -1, false
				}
				frontier, nd = p1, pn
				continue
			}
			n1, n2 := &cc.nodes[p1], &cc.nodes[p2]
			if int32(uint32(n1.levelSlot)) > int32(uint32(n2.levelSlot)) {
				p1, p2, n1, n2 = p2, p1, n2, n1
			}
			// Evaluating p2 here is sound only if none of its fanins
			// can still change — i.e. nothing strictly downstream of
			// p1 (level ≥ l1+1, excluding p1 itself) feeds it. That
			// holds exactly when l2 ≤ l1+1; wider splits go to the
			// levelized worklist, which re-settles everything in
			// order. p2 may consume p1 itself, so p1 settles first
			// (equal levels cannot feed each other).
			if int32(uint32(n2.levelSlot)) > int32(uint32(n1.levelSlot))+1 {
				return frontier, -1, true
			}
			var t1, t2 [8]uint64
			var ch1, ch2 bool
			if n1.flags&flagLinear != 0 && qEpoch[p1] != epoch {
				qEpoch[p1] = epoch
				t1 = *curT
				gg := good[int(p1)*w:]
				pf := fval[int(p1)*w : int(p1)*w+w]
				for l := 0; l < w; l++ {
					pf[l] = gg[l] ^ curT[l]
				}
				fs.touched = append(fs.touched, p1)
				ch1 = true
			} else {
				ch1 = fs.evalApplyWide(p1, n1, &t1)
			}
			if n2.flags&flagLinear != 0 && !ch1 && qEpoch[p2] != epoch {
				// Pass-through only while the frontier is still p2's
				// sole toggled fanin (p2 may consume p1).
				qEpoch[p2] = epoch
				t2 = *curT
				gg := good[int(p2)*w:]
				pf := fval[int(p2)*w : int(p2)*w+w]
				for l := 0; l < w; l++ {
					pf[l] = gg[l] ^ curT[l]
				}
				fs.touched = append(fs.touched, p2)
				ch2 = true
			} else {
				ch2 = fs.evalApplyWide(p2, n2, &t2)
			}
			switch {
			case ch1 && ch2:
				// Two live differences: sole-live shortcuts end here;
				// record these gates' own output detections since the
				// drain never revisits them.
				if cc.isOut[p1] {
					for l := 0; l < w; l++ {
						det[l] |= t1[l]
					}
				}
				if cc.isOut[p2] {
					for l := 0; l < w; l++ {
						det[l] |= t2[l]
					}
				}
				return p1, p2, true
			case ch1:
				*curT = t1
				frontier, nd = p1, n1
			case ch2:
				*curT = t2
				frontier, nd = p2, n2
			default:
				return frontier, -1, false // both branches died
			}
		default:
			return frontier, -1, true
		}
	}
}
