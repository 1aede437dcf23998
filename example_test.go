package optirand_test

import (
	"context"
	"fmt"

	"optirand"
)

// Example_runner is the package documentation's "typical flow",
// compiled: build a circuit, optimize its input probabilities on a
// Runner, and confirm by fault simulation. Keeping the doc's snippet
// here means the signatures in the package comment can never drift
// from reality again. Swapping the backend — WithWorkers(8),
// WithCache(n), WithRemote("host:8417") — changes no result bytes.
func Example_runner() {
	ctx := context.Background()
	bench, _ := optirand.BenchmarkByName("s1") // or optirand.ParseBenchFile("mydesign.bench")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)

	r := optirand.NewRunner() // or WithWorkers(8), WithRemote("host:8417"), …
	defer r.Close()
	opt, err := r.Optimize(ctx, optirand.OptimizeSpec{Circuit: c, Faults: faults})
	if err != nil {
		panic(err)
	}
	cov, err := r.Campaign(ctx, optirand.CampaignSpec{
		Circuit: c, Faults: faults,
		Source:   optirand.Weights(opt.Weights),
		Patterns: 10000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("test length shrank:", opt.FinalN < opt.InitialN)
	fmt.Println("coverage above 90%:", cov.Coverage() > 0.9)
	// Output:
	// test length shrank: true
	// coverage above 90%: true
}

// Example_sweep declares a circuits × weightings × seeds grid once and
// streams its campaigns as they complete. The same spec runs unchanged
// — and byte-identically — on a parallel pool, behind a cache, or
// against a remote optirandd.
func Example_sweep() {
	r := optirand.NewRunner(optirand.WithWorkers(4), optirand.WithCache(128))
	defer r.Close()

	bench, _ := optirand.BenchmarkByName("c432")
	c := bench.Build()
	spec := optirand.SweepSpec{
		BaseSeed:    1987,
		Repetitions: 3,
		Patterns:    500,
		Circuits: []optirand.SweepCircuit{{
			Name: "c432", Circuit: c, Faults: optirand.CollapsedFaults(c),
			Weightings: []optirand.SweepWeighting{
				{Name: "conventional", Source: optirand.Weights(optirand.UniformWeights(c))},
			},
		}},
	}

	streamed := 0
	err := r.SweepEach(context.Background(), spec, func(i int, res optirand.TaskResult) {
		streamed++ // results arrive as they land; i is the grid position
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("campaigns streamed:", streamed)
	// Output: campaigns streamed: 3
}

// Example demonstrates the core flow: build a random-pattern-resistant
// circuit, optimize its input probabilities, and compare the required
// test lengths.
func Example() {
	// An 8-bit equality comparator: the hardest fault needs all eight
	// bit matches at once (probability 2^-8 under conventional
	// patterns).
	b := optirand.NewBuilder("eq8")
	var xn []int
	for i := 0; i < 8; i++ {
		a := b.Input(fmt.Sprintf("a%d", i))
		x := b.Input(fmt.Sprintf("b%d", i))
		xn = append(xn, b.Xnor(fmt.Sprintf("m%d", i), a, x))
	}
	b.Output("eq", b.And("eq", xn...))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}

	faults := optirand.CollapsedFaults(c)
	r := optirand.NewRunner()
	defer r.Close()
	res, err := r.Optimize(context.Background(), optirand.OptimizeSpec{Circuit: c, Faults: faults})
	if err != nil {
		panic(err)
	}
	fmt.Println("reduced the required test length at least 4x:", res.Gain() >= 4)
	fmt.Println("improved:", res.FinalN < res.InitialN)
	// Output:
	// reduced the required test length at least 4x: true
	// improved: true
}

// ExampleParseBenchString shows netlist I/O in the ISCAS bench format.
func ExampleParseBenchString() {
	c, err := optirand.ParseBenchString(`
# name: demo
INPUT(a)
INPUT(b)
OUTPUT(o)
o = NAND(a, b)
`)
	if err != nil {
		panic(err)
	}
	fmt.Println(c.Name, c.NumInputs(), c.NumOutputs())
	// Output: demo 2 1
}

// ExampleRunner_Campaign runs a seeded weighted random fault
// simulation campaign.
func ExampleRunner_Campaign() {
	bench, _ := optirand.BenchmarkByName("c432")
	c := bench.Build()
	r := optirand.NewRunner()
	defer r.Close()
	res, err := r.Campaign(context.Background(), optirand.CampaignSpec{
		Circuit: c, Faults: optirand.CollapsedFaults(c),
		Source:   optirand.Weights(optirand.UniformWeights(c)),
		Patterns: 5000, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("coverage above 90%:", res.Coverage() > 0.9)
	// Output: coverage above 90%: true
}

// ExampleGenerateTest shows deterministic pattern generation for a
// single fault.
func ExampleGenerateTest() {
	bench, _ := optirand.BenchmarkByName("s1")
	c := bench.Build()
	faults := optirand.CollapsedFaults(c)
	pattern, status := optirand.GenerateTest(c, faults[0], 0)
	fmt.Println(status, pattern != nil)
	// Output: success true
}

// ExampleRequiredTestLength computes the paper's NORMALIZE result from
// a detection-probability profile.
func ExampleRequiredTestLength() {
	// One hard fault at p=1e-6 dominates two easy ones.
	res := optirand.RequiredTestLength([]float64{1e-6, 0.3, 0.5}, 0.999)
	fmt.Printf("N ≈ %.2g, hard faults: %d\n", res.N, res.HardFaults)
	// Output: N ≈ 6.9e+06, hard faults: 3
}
