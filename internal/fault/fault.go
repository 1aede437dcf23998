// Package fault defines the single stuck-at fault model used throughout
// the library: a fault forces one circuit line (a gate-output stem or a
// gate-input branch) permanently to 0 or to 1.
//
// The package generates the full fault universe of a circuit and
// collapses it into structural equivalence classes. Per the paper's
// requirement ("F ... must contain all stuck-at-0 and stuck-at-1 faults
// at the primary inputs"), primary-input stem faults are always chosen
// as class representatives when present.
package fault

import (
	"fmt"

	"optirand/internal/circuit"
)

// Fault is a single stuck-at fault. Pin == StemPin addresses the output
// stem of Gate; Pin >= 0 addresses input pin Pin of Gate (the branch of
// the driving line into that gate).
type Fault struct {
	Gate  int
	Pin   int
	Stuck uint8 // 0 or 1
}

// StemPin is the Pin value identifying a gate-output stem fault.
const StemPin = -1

// IsStem reports whether the fault sits on a gate output.
func (f Fault) IsStem() bool { return f.Pin == StemPin }

// Driver returns the gate whose output carries the faulted signal: the
// gate itself for stem faults, the fanin gate for branch faults.
func (f Fault) Driver(c *circuit.Circuit) int {
	if f.IsStem() {
		return f.Gate
	}
	return c.Gates[f.Gate].Fanin[f.Pin]
}

// Describe renders the fault with signal names, e.g. "G17 s-a-1" or
// "G17->G22.0 s-a-0" for a branch.
func (f Fault) Describe(c *circuit.Circuit) string {
	if f.IsStem() {
		return fmt.Sprintf("%s s-a-%d", c.GateName(f.Gate), f.Stuck)
	}
	d := c.Gates[f.Gate].Fanin[f.Pin]
	return fmt.Sprintf("%s->%s.%d s-a-%d", c.GateName(d), c.GateName(f.Gate), f.Pin, f.Stuck)
}

// String implements fmt.Stringer without circuit context.
func (f Fault) String() string {
	if f.IsStem() {
		return fmt.Sprintf("g%d s-a-%d", f.Gate, f.Stuck)
	}
	return fmt.Sprintf("g%d.%d s-a-%d", f.Gate, f.Pin, f.Stuck)
}

// Universe holds the full stuck-at fault list of a circuit together with
// its equivalence-collapsed form.
type Universe struct {
	Circuit *circuit.Circuit
	// All is the complete uncollapsed fault list: two faults per stem
	// and two per branch (branches only at fanout stems; a single-fanout
	// branch is structurally identical to its stem).
	All []Fault
	// Classes partitions All into structural equivalence classes.
	Classes [][]Fault
	// Reps holds one representative per class, primary-input stem
	// faults preferred. This is the fault model F of the paper.
	Reps []Fault
}

// New builds the fault universe of c and collapses it.
func New(c *circuit.Circuit) *Universe {
	u := &Universe{Circuit: c}
	u.build()
	u.collapse()
	return u
}

// id maps a fault site to a dense index: site = stem(g) or branch(g,pin),
// two faults (sa0, sa1) per site.
type siteTable struct {
	c        *circuit.Circuit
	stemBase []int // stem site index per gate
	pinBase  []int // first branch site index per gate (its pin 0)
	nSites   int
}

func newSiteTable(c *circuit.Circuit) *siteTable {
	t := &siteTable{c: c,
		stemBase: make([]int, c.NumGates()),
		pinBase:  make([]int, c.NumGates()),
	}
	n := 0
	for g := 0; g < c.NumGates(); g++ {
		t.stemBase[g] = n
		n++
	}
	for g := 0; g < c.NumGates(); g++ {
		t.pinBase[g] = n
		n += len(c.Gates[g].Fanin)
	}
	t.nSites = n
	return t
}

func (t *siteTable) stem(g int) int        { return t.stemBase[g] }
func (t *siteTable) branch(g, pin int) int { return t.pinBase[g] + pin }

// faultID returns a dense fault index (2 per site).
func (t *siteTable) faultID(f Fault) int {
	if f.IsStem() {
		return 2*t.stem(f.Gate) + int(f.Stuck)
	}
	return 2*t.branch(f.Gate, f.Pin) + int(f.Stuck)
}

func (u *Universe) build() {
	c := u.Circuit
	for g := 0; g < c.NumGates(); g++ {
		switch c.Gates[g].Type {
		case circuit.Const0:
			// s-a-0 on a constant-0 line does not change the circuit.
			u.All = append(u.All, Fault{g, StemPin, 1})
			continue
		case circuit.Const1:
			u.All = append(u.All, Fault{g, StemPin, 0})
			continue
		}
		u.All = append(u.All, Fault{g, StemPin, 0}, Fault{g, StemPin, 1})
	}
	for g := 0; g < c.NumGates(); g++ {
		for pin, d := range c.Gates[g].Fanin {
			if c.FanoutCount(d) == 1 {
				// Sole consumer: the branch is the stem; skip duplicates.
				continue
			}
			u.All = append(u.All, Fault{g, pin, 0}, Fault{g, pin, 1})
		}
	}
}

// disjoint-set union over fault IDs.
type dsu struct{ parent []int }

func newDSU(n int) *dsu {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &dsu{parent: p}
}

func (d *dsu) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *dsu) union(a, b int) {
	ra, rb := d.find(a), d.find(b)
	if ra != rb {
		d.parent[ra] = rb
	}
}

// collapse merges structurally equivalent faults:
//
//   - AND:  any input s-a-0 ≡ output s-a-0   (NAND: ≡ output s-a-1)
//   - OR:   any input s-a-1 ≡ output s-a-1   (NOR:  ≡ output s-a-0)
//   - NOT:  input s-a-v ≡ output s-a-(1-v);  BUF: input s-a-v ≡ output s-a-v
//   - a stem with exactly one consumer ≡ the branch at that consumer
//     (the branch faults are not even generated in that case; the rule
//     applies when relating a driver's stem to a sole fanout pin)
func (u *Universe) collapse() {
	c := u.Circuit
	t := newSiteTable(c)
	d := newDSU(2 * t.nSites)

	// lineFault returns the fault id of the line feeding pin `pin` of
	// gate g, stuck at v: the branch if it exists, else the driver stem.
	lineFault := func(g, pin int, v uint8) int {
		drv := c.Gates[g].Fanin[pin]
		if c.FanoutCount(drv) == 1 {
			return 2*t.stem(drv) + int(v)
		}
		return 2*t.branch(g, pin) + int(v)
	}

	for g := 0; g < c.NumGates(); g++ {
		gate := &c.Gates[g]
		out := func(v uint8) int { return 2*t.stem(g) + int(v) }
		switch gate.Type {
		case circuit.And:
			for pin := range gate.Fanin {
				d.union(lineFault(g, pin, 0), out(0))
			}
		case circuit.Nand:
			for pin := range gate.Fanin {
				d.union(lineFault(g, pin, 0), out(1))
			}
		case circuit.Or:
			for pin := range gate.Fanin {
				d.union(lineFault(g, pin, 1), out(1))
			}
		case circuit.Nor:
			for pin := range gate.Fanin {
				d.union(lineFault(g, pin, 1), out(0))
			}
		case circuit.Not:
			d.union(lineFault(g, 0, 0), out(1))
			d.union(lineFault(g, 0, 1), out(0))
		case circuit.Buf:
			d.union(lineFault(g, 0, 0), out(0))
			d.union(lineFault(g, 0, 1), out(1))
		}
	}

	// One pass over All: classes are numbered in first-seen order
	// (classNo[root] is the number plus one, 0 while unseen), and each
	// class lists its members in All order.
	classNo := make([]int, 2*t.nSites)
	u.Classes = u.Classes[:0]
	for _, f := range u.All {
		root := d.find(t.faultID(f))
		if classNo[root] == 0 {
			u.Classes = append(u.Classes, nil)
			classNo[root] = len(u.Classes)
		}
		k := classNo[root] - 1
		u.Classes[k] = append(u.Classes[k], f)
	}
	u.Reps = u.Reps[:0]
	for _, class := range u.Classes {
		u.Reps = append(u.Reps, u.pickRep(class))
	}
}

// pickRep chooses the class representative: a primary-input stem fault
// if the class contains one (the paper requires PI faults in F), else a
// stem fault, else the first member.
func (u *Universe) pickRep(class []Fault) Fault {
	c := u.Circuit
	best := class[0]
	bestRank := rank(c, best)
	for _, f := range class[1:] {
		if r := rank(c, f); r < bestRank {
			best, bestRank = f, r
		}
	}
	return best
}

func rank(c *circuit.Circuit, f Fault) int {
	if f.IsStem() && c.Gates[f.Gate].Type == circuit.Input {
		return 0
	}
	if f.IsStem() {
		return 1
	}
	return 2
}

// PIStemFaults returns the stuck-at faults at the primary inputs of c,
// two per input, in input order.
func PIStemFaults(c *circuit.Circuit) []Fault {
	fs := make([]Fault, 0, 2*c.NumInputs())
	for _, g := range c.Inputs {
		fs = append(fs, Fault{g, StemPin, 0}, Fault{g, StemPin, 1})
	}
	return fs
}
