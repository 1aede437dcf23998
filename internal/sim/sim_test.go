package sim

import (
	"math"
	"testing"
	"testing/quick"

	"optirand/internal/bench"
	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/prng"
)

const c17Src = `
# name: c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func mustC17(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := bench.ParseString(c17Src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomCircuit(seed uint64, nIn, nGates int) *circuit.Circuit {
	rng := prng.New(seed)
	b := circuit.NewBuilder("rand")
	ids := b.Inputs("x", nIn)
	types := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or,
		circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for i := 0; i < nGates; i++ {
		t := types[rng.Intn(len(types))]
		var g int
		if t == circuit.Not || t == circuit.Buf {
			g = b.Add(t, "", ids[rng.Intn(len(ids))])
		} else {
			k := 2 + rng.Intn(3)
			fan := make([]int, k)
			for j := range fan {
				fan[j] = ids[rng.Intn(len(ids))]
			}
			g = b.Add(t, "", fan...)
		}
		ids = append(ids, g)
	}
	// Expose the last few gates (and any dangling ones) as outputs.
	for i := 0; i < 4 && i < len(ids); i++ {
		b.Output("", ids[len(ids)-1-i])
	}
	return b.MustBuild()
}

// TestParallelMatchesScalar: the 64-way word simulator must agree with
// the scalar reference evaluator on every bit lane.
func TestParallelMatchesScalar(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		c := randomCircuit(seed, 6, 30)
		s := NewSimulator(c)
		rng := prng.New(seed + 100)
		words := make([]uint64, c.NumInputs())
		for i := range words {
			words[i] = rng.Uint64()
		}
		s.SetInputs(words)
		s.Run()
		in := make([]bool, c.NumInputs())
		for bit := 0; bit < 64; bit++ {
			for i := range in {
				in[i] = words[i]>>uint(bit)&1 == 1
			}
			want := c.Eval(in)
			for g := 0; g < c.NumGates(); g++ {
				got := s.Value(g)>>uint(bit)&1 == 1
				if got != want[g] {
					t.Fatalf("seed %d bit %d gate %d: parallel=%v scalar=%v", seed, bit, g, got, want[g])
				}
			}
		}
	}
}

// TestFaultSimMatchesScalar: DetectWords must agree bit-for-bit with
// the brute-force two-machine scalar reference, for every fault, every
// lane and every pattern bit.
func TestFaultSimMatchesScalar(t *testing.T) {
	cases := []*circuit.Circuit{mustC17(t)}
	for seed := uint64(0); seed < 6; seed++ {
		cases = append(cases, randomCircuit(seed, 5, 25))
	}
	for _, c := range cases {
		checkWideReference(t, c, fault.New(c).All, 7, 8, 1)
	}
}

// randomGroup loads every lane of s with random input words drawn from
// rng and runs the wide good machine; group[l] is lane l's input words.
func randomGroup(s *Simulator, rng *prng.SplitMix64) [][]uint64 {
	group := make([][]uint64, s.Lanes())
	for l := range group {
		group[l] = make([]uint64, s.Circuit().NumInputs())
		for i := range group[l] {
			group[l][i] = rng.Uint64()
		}
		s.SetInputsLane(l, group[l])
	}
	s.RunWide()
	return group
}

// TestFaultSimStateIsolation: interleaving different faults must not
// leak state between DetectWords calls.
func TestFaultSimStateIsolation(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	s := NewSimulator(c)
	fs := NewFaultSimulator(s)
	randomGroup(s, prng.New(3))
	first := make([][8]uint64, len(u.All))
	for i, f := range u.All {
		fs.DetectWords(f, first[i][:])
	}
	// Reverse order must give identical masks.
	var got [8]uint64
	for i := len(u.All) - 1; i >= 0; i-- {
		if fs.DetectWords(u.All[i], got[:]); got != first[i] {
			t.Fatalf("fault %v: masks changed on re-query: %x vs %x",
				u.All[i].Describe(c), got, first[i])
		}
	}
}

func TestCampaignC17FullCoverage(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	w := make([]float64, c.NumInputs())
	for i := range w {
		w[i] = 0.5
	}
	res := runWeighted(c, u.Reps, w, 1000, 1, 0, serial)
	if res.Coverage() != 1.0 {
		t.Errorf("c17 coverage after 1000 random patterns = %v, want 1.0", res.Coverage())
	}
	for i, fd := range res.FirstDetected {
		if fd == 0 {
			t.Errorf("fault %v never detected", u.Reps[i].Describe(c))
		}
		if fd < 1 || fd > 1000 {
			t.Errorf("fault %v FirstDetected = %d out of range", u.Reps[i].Describe(c), fd)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	a := runWeighted(c, u.Reps, w, 256, 42, 64, serial)
	b := runWeighted(c, u.Reps, w, 256, 42, 64, serial)
	if a.Detected != b.Detected || len(a.Curve) != len(b.Curve) {
		t.Fatalf("campaign not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve differs at %d: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

func TestCampaignCurveMonotone(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	res := runWeighted(c, u.Reps, w, 512, 9, 64, serial)
	prev := CoveragePoint{}
	for _, p := range res.Curve {
		if p.Patterns < prev.Patterns || p.Detected < prev.Detected {
			t.Fatalf("coverage curve not monotone: %+v after %+v", p, prev)
		}
		prev = p
	}
}

func TestCampaignZeroPatterns(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	res := runWeighted(c, u.Reps, w, 0, 1, 0, serial)
	if res.Detected != 0 {
		t.Errorf("detected %d faults with zero patterns", res.Detected)
	}
}

func TestCampaignWeightExtremes(t *testing.T) {
	// With all weights 1, only patterns of all ones are applied; for
	// c17 that detects some but not all faults, and the campaign must
	// terminate anyway.
	c := mustC17(t)
	u := fault.New(c)
	w := []float64{1, 1, 1, 1, 1}
	res := runWeighted(c, u.Reps, w, 128, 1, 0, serial)
	if res.Coverage() >= 1.0 {
		t.Errorf("constant patterns achieved full coverage (%v), impossible for c17", res.Coverage())
	}
	if res.Coverage() <= 0 {
		t.Errorf("constant all-ones pattern detected nothing")
	}
}

// TestExactDetectProbsMatchesEnumeration cross-checks the batched
// enumerator against direct per-pattern scalar detection.
func TestExactDetectProbsMatchesEnumeration(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	weights := []float64{0.3, 0.5, 0.7, 0.2, 0.9}
	got := ExactDetectProbs(c, u.Reps, weights)
	n := c.NumInputs()
	in := make([]bool, n)
	for fi, f := range u.Reps {
		want := 0.0
		for v := 0; v < 1<<uint(n); v++ {
			pr := 1.0
			for i := 0; i < n; i++ {
				if v>>uint(i)&1 == 1 {
					in[i] = true
					pr *= weights[i]
				} else {
					in[i] = false
					pr *= 1 - weights[i]
				}
			}
			if DetectsScalar(c, f, in) {
				want += pr
			}
		}
		if math.Abs(got[fi]-want) > 1e-12 {
			t.Errorf("fault %v: ExactDetectProbs=%v enumeration=%v", f.Describe(c), got[fi], want)
		}
	}
}

// TestMonteCarloApproachesExact: sampling estimates converge to the
// exact detection probabilities.
func TestMonteCarloApproachesExact(t *testing.T) {
	c := mustC17(t)
	u := fault.New(c)
	weights := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	exact := ExactDetectProbs(c, u.Reps, weights)
	est := EstimateDetectProbs(c, u.Reps, weights, 400, 5) // 25600 patterns
	for i := range exact {
		if math.Abs(exact[i]-est[i]) > 0.02 {
			t.Errorf("fault %v: exact=%v sampled=%v", u.Reps[i].Describe(c), exact[i], est[i])
		}
	}
}

// TestDetectWordQuick drives random circuits, random faults and random
// lane groups through quick.Check, against the scalar reference on a
// bit sample of every lane.
func TestDetectWordQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed uint64, faultPick uint, word uint64) bool {
		c := randomCircuit(seed%16, 5, 20)
		u := fault.New(c)
		flt := u.All[int(faultPick%uint(len(u.All)))]
		s := NewSimulator(c)
		fs := NewFaultSimulator(s)
		group := randomGroup(s, prng.New(word))
		var det [8]uint64
		fs.DetectWords(flt, det[:])
		in := make([]bool, c.NumInputs())
		for l, words := range group {
			for bit := l; bit < 64; bit += 7 {
				for i := range in {
					in[i] = words[i]>>uint(bit)&1 == 1
				}
				if DetectsScalar(c, flt, in) != (det[l]>>uint(bit)&1 == 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
