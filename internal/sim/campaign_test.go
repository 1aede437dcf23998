package sim

import (
	"testing"

	"optirand/internal/bench"
	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/prng"
)

func campaignCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := bench.ParseString(c17Src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMixtureSingleSetEqualsPlainCampaign: a plain one-set campaign and
// a two-slot rotation of that same set draw identical patterns, so
// they must agree on every detection; only the rotation attributes its
// curve points to weight sets.
func TestMixtureSingleSetEqualsPlainCampaign(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	cfg := CampaignConfig{Patterns: 500, CurveStep: 128, Workers: 1}
	a := RunCampaignConfig(c, u.Reps, [][]float64{w}, 3, cfg)
	b := RunCampaignConfig(c, u.Reps, [][]float64{w, w}, 3, cfg)
	if a.Detected != b.Detected || a.Patterns != b.Patterns || len(a.Curve) != len(b.Curve) {
		t.Fatalf("single-set campaign differs from its rotation: %+v vs %+v", a, b)
	}
	for i := range a.FirstDetected {
		if a.FirstDetected[i] != b.FirstDetected[i] {
			t.Fatalf("FirstDetected differs at %d", i)
		}
	}
	for i, p := range a.Curve {
		if p.WeightSet != 0 {
			t.Errorf("single-set curve point %d attributed to weight set %d", i, p.WeightSet)
		}
		if q := b.Curve[i]; q.Patterns != p.Patterns || q.Detected != p.Detected {
			t.Errorf("curve point %d differs: %+v vs %+v", i, p, q)
		}
	}
}

// TestMixtureIdenticalSetsEqualsPlain: a mixture of identical sets uses
// the same per-batch draw sequence, hence identical results.
func TestMixtureIdenticalSetsEqualsPlain(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	a := runWeighted(c, u.Reps, w, 512, 7, 0, serial)
	b := RunCampaignConfig(c, u.Reps, [][]float64{w, w, w}, 7, CampaignConfig{Patterns: 512, Workers: 1})
	if a.Detected != b.Detected {
		t.Fatalf("identical-set mixture differs: %d vs %d detected", a.Detected, b.Detected)
	}
}

func TestMixturePanicsOnEmpty(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	defer func() {
		if recover() == nil {
			t.Error("empty weight-set list did not panic")
		}
	}()
	RunCampaignConfig(c, u.Reps, nil, 1, CampaignConfig{Patterns: 100, Workers: 1})
}

func TestMixtureZeroPatterns(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	res := RunCampaignConfig(c, u.Reps, [][]float64{w, w}, 1, CampaignConfig{Patterns: 0, Workers: 1})
	if res.Detected != 0 || len(res.Curve) != 1 {
		t.Errorf("zero-pattern mixture: %+v", res)
	}
}

// TestSourceCampaignMatchesPRNG: RunCampaignSource fed by the same
// word stream as a weighted campaign must produce identical results.
func TestSourceCampaignMatchesPRNG(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	const n = 700
	a := runWeighted(c, u.Reps, w, n, 11, 64, serial)
	rng := prng.New(11)
	b := RunCampaignSource(c, u.Reps, func(dst []uint64) {
		rng.WeightedWords(dst, w)
	}, n, 64)
	if a.Detected != b.Detected || a.Patterns != b.Patterns {
		t.Fatalf("source campaign differs: %+v vs %+v", a, b)
	}
	for i := range a.FirstDetected {
		if a.FirstDetected[i] != b.FirstDetected[i] {
			t.Fatalf("FirstDetected differs at fault %d: %d vs %d",
				i, a.FirstDetected[i], b.FirstDetected[i])
		}
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve differs at %d", i)
		}
	}
}

func TestSourceCampaignZeroPatterns(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	res := RunCampaignSource(c, u.Reps, func([]uint64) {
		t.Error("source called despite zero patterns")
	}, 0, 0)
	if res.Detected != 0 {
		t.Errorf("detected %d", res.Detected)
	}
}

// TestCampaignPartialBatch: pattern counts that are not multiples of 64
// must mask the out-of-range bits (a fault detectable only by patterns
// beyond the budget must not be counted).
func TestCampaignPartialBatch(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	for _, n := range []int{1, 3, 63, 65, 100} {
		res := runWeighted(c, u.Reps, w, n, 5, 0, serial)
		if res.Patterns != n {
			t.Errorf("n=%d: Patterns=%d", n, res.Patterns)
		}
		for i, fd := range res.FirstDetected {
			if fd > n {
				t.Errorf("n=%d: fault %d first detected at %d > budget", n, i, fd)
			}
		}
	}
}

// TestCampaignFirstDetectedConsistent: a fault's FirstDetected pattern,
// replayed in isolation, must indeed detect the fault.
func TestCampaignFirstDetectedConsistent(t *testing.T) {
	c := campaignCircuit(t)
	u := fault.New(c)
	w := []float64{0.3, 0.7, 0.5, 0.4, 0.6}
	const n = 512
	res := runWeighted(c, u.Reps, w, n, 21, 0, serial)
	// Regenerate the same pattern stream.
	rng := prng.New(21)
	words := make([][]uint64, 0)
	for applied := 0; applied < n; applied += 64 {
		batch := make([]uint64, c.NumInputs())
		rng.WeightedWords(batch, w)
		words = append(words, batch)
	}
	in := make([]bool, c.NumInputs())
	for fi, fd := range res.FirstDetected {
		if fd == 0 {
			continue
		}
		batch, bit := (fd-1)/64, (fd-1)%64
		for i := range in {
			in[i] = words[batch][i]>>uint(bit)&1 == 1
		}
		if !DetectsScalar(c, u.Reps[fi], in) {
			t.Errorf("fault %v: FirstDetected=%d does not actually detect it",
				u.Reps[fi].Describe(c), fd)
		}
	}
}

func TestExactDetectProbsRefusesWideCircuits(t *testing.T) {
	b := circuit.NewBuilder("wide")
	ins := b.Inputs("x", 25)
	b.Output("o", b.And("o", ins...))
	c := b.MustBuild()
	defer func() {
		if recover() == nil {
			t.Error("ExactDetectProbs accepted 25 inputs")
		}
	}()
	ExactDetectProbs(c, fault.New(c).Reps, make([]float64, 25))
}
