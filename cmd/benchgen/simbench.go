package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/prng"
	"optirand/internal/report"
	"optirand/internal/sim"
)

var (
	flagSimbench = flag.Bool("simbench", false, "benchmark the wide-word fault-simulation kernel at both lane widths, write a JSON summary")
	flagSimOut   = flag.String("simout", "BENCH_sim.json", "simbench: summary output path")
	flagSimCirc  = flag.String("simcircuits", "c2670,c7552,c499,c1355", "simbench: comma-separated circuits (chain-heavy random-pattern-resistant pair plus the XOR-dominated parity meshes where the diff-word path engages)")
	flagSimN     = flag.Int("simn", 2048, "simbench: patterns per campaign measurement")
	flagSimMinMS = flag.Int("simminms", 300, "simbench: minimum measured time per configuration (ms)")
)

// simCircuit is the simbench record of one circuit. Kernel throughput
// is counted in fault-words per second: one fault-word is one
// 64-pattern detection mask for one fault, so a W-lane DetectWords
// call contributes W fault-words and the widths are directly
// comparable.
type simCircuit struct {
	Name   string `json:"name"`
	Gates  int    `json:"gates"`
	Faults int    `json:"faults"`
	// LanesChosen is the lane width the compiler picked for this
	// circuit (chooseLanes); the W4/W8 columns force the width.
	LanesChosen         int     `json:"lanes_chosen"`
	DetectWordsPerSec   float64 `json:"detect_words_per_sec"` // at the chosen width
	W4DetectWordsPerSec float64 `json:"w4_detect_words_per_sec"`
	W8DetectWordsPerSec float64 `json:"w8_detect_words_per_sec"`
	// CampaignPatternsPerSec is end-to-end serial campaign throughput
	// (good machine + detection + fault dropping) in patterns/sec.
	CampaignPatternsPerSec float64 `json:"campaign_patterns_per_sec"`
	// Steady-state allocations per DetectWords/RunWide call (must be 0).
	AllocsPerDetectWide float64 `json:"allocs_per_detect_wide"`
	AllocsPerRunWide    float64 `json:"allocs_per_run_wide"`
	// WideIdentical reports that W=4 and W=8 produced the same mask for
	// every fault on every batch, and that those masks agree with the
	// scalar reference (sim.DetectsScalar) on a fault and pattern
	// sample.
	WideIdentical bool `json:"wide_identical"`
	// PatternShardsIdentical / SharedGoodIdentical report that the
	// pattern-range-sharded and shared-good-machine campaigns
	// reproduced the serial campaign bit for bit.
	PatternShardsIdentical bool `json:"pattern_shards_identical"`
	SharedGoodIdentical    bool `json:"shared_goodmachine_identical"`
}

// simSummary is the BENCH_sim.json schema.
type simSummary struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`
	Seed       uint64       `json:"seed"`
	Patterns   int          `json:"patterns"`
	Circuits   []simCircuit `json:"circuits"`
}

// simCampaignsEqual is campaignsEqual over the internal result type.
func simCampaignsEqual(a, b *sim.CampaignResult) bool {
	if a.TotalFaults != b.TotalFaults || a.Detected != b.Detected || a.Patterns != b.Patterns {
		return false
	}
	for i := range a.FirstDetected {
		if a.FirstDetected[i] != b.FirstDetected[i] {
			return false
		}
	}
	if len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	return true
}

// wideGroup loads one fixed W-lane pattern group and runs the good
// machine.
func wideGroup(s *sim.Simulator, rng *prng.SplitMix64, nIn int) {
	w := s.Lanes()
	words := make([]uint64, nIn)
	for l := 0; l < w; l++ {
		for i := range words {
			words[i] = rng.Uint64()
		}
		s.SetInputsLane(l, words)
	}
	s.RunWide()
}

// measureWide times full fault-list DetectWords passes on a prepared
// wide simulator and returns fault-words per second.
func measureWide(minTime time.Duration, fs *sim.FaultSimulator, faults []fault.Fault, w int) float64 {
	var det [8]uint64
	d := measure(minTime, func() {
		for _, f := range faults {
			fs.DetectWords(f, det[:])
		}
	})
	return float64(len(faults)*w) / d.Seconds()
}

// checkWideIdentical runs 8 seeded batches through DetectWords at W=4
// and W=8 and reports whether both widths give the same mask for every
// fault on every batch, and whether those masks agree with the scalar
// reference on every 16th pattern bit of up to 64 stride-sampled
// faults.
func checkWideIdentical(c *circuit.Circuit, faults []fault.Fault, seed uint64) bool {
	const nBatches = 8
	rng := prng.New(seed)
	batches := make([][]uint64, nBatches)
	for b := range batches {
		batches[b] = make([]uint64, c.NumInputs())
		for i := range batches[b] {
			batches[b][i] = rng.Uint64()
		}
	}
	masks := func(lanes int) []uint64 {
		s := sim.NewSimulatorLanes(c, lanes)
		fs := sim.NewFaultSimulator(s)
		out := make([]uint64, nBatches*len(faults))
		var det [8]uint64
		for g := 0; g < nBatches; g += lanes {
			for l := 0; l < lanes; l++ {
				s.SetInputsLane(l, batches[g+l])
			}
			s.RunWide()
			for fi, f := range faults {
				fs.DetectWords(f, det[:])
				for l := 0; l < lanes; l++ {
					out[(g+l)*len(faults)+fi] = det[l]
				}
			}
		}
		return out
	}
	m4, m8 := masks(4), masks(8)
	for i := range m4 {
		if m4[i] != m8[i] {
			return false
		}
	}
	step := len(faults)/64 + 1
	in := make([]bool, c.NumInputs())
	for b, words := range batches {
		for bit := b; bit < 64; bit += 16 {
			for i := range in {
				in[i] = words[i]>>uint(bit)&1 == 1
			}
			for fi := 0; fi < len(faults); fi += step {
				got := m4[b*len(faults)+fi]>>uint(bit)&1 == 1
				if got != sim.DetectsScalar(c, faults[fi], in) {
					return false
				}
			}
		}
	}
	return true
}

// simbench measures the wide-word fault kernel at both lane widths and
// records the simulation performance trajectory (BENCH_sim.json). All
// measurements are single-thread by construction (one simulator, one
// goroutine); the equivalence flags double as an end-to-end smoke
// test, and any false flag makes the process exit non-zero after the
// summary is written so CI fails while still uploading the artifact.
func simbench() {
	const seed = 1987
	minTime := time.Duration(*flagSimMinMS) * time.Millisecond
	summary := simSummary{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		Patterns:   *flagSimN,
	}
	t := report.NewTable("Fault-simulation kernel (wide-word, single thread)",
		"Circuit", "Faults", "W", "Wide f-words/s", "W4/W8 f-words/s",
		"Campaign pat/s", "Allocs", "W4==W8==scalar", "Shards==serial", "SharedGM==serial")

	allIdentical := true
	for _, name := range strings.Split(*flagSimCirc, ",") {
		name = strings.TrimSpace(name)
		b, ok := gen.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgen: unknown circuit %q (try -list)\n", name)
			os.Exit(2)
		}
		c := b.Build()
		faults := fault.New(c).Reps
		weights := make([]float64, c.NumInputs())
		for i := range weights {
			weights[i] = 0.5
		}
		sc := simCircuit{
			Name:          name,
			Gates:         c.NumGates(),
			Faults:        len(faults),
			LanesChosen:   sim.NewSimulator(c).Lanes(),
			WideIdentical: checkWideIdentical(c, faults, seed),
		}

		// Both forced widths over one fixed group.
		perW := map[int]float64{}
		for _, lanes := range []int{4, 8} {
			ws := sim.NewSimulatorLanes(c, lanes)
			wideGroup(ws, prng.New(seed), c.NumInputs())
			perW[lanes] = measureWide(minTime, sim.NewFaultSimulator(ws), faults, lanes)
		}
		sc.W4DetectWordsPerSec = perW[4]
		sc.W8DetectWordsPerSec = perW[8]
		sc.DetectWordsPerSec = perW[sc.LanesChosen]

		// Steady-state allocation guards (mirror the sim test suite).
		pick := faults[len(faults)/2]
		var det [8]uint64
		ws := sim.NewSimulatorLanes(c, sc.LanesChosen)
		wideGroup(ws, prng.New(seed), c.NumInputs())
		wfs := sim.NewFaultSimulator(ws)
		wfs.DetectWords(pick, det[:]) // warm the mirror
		sc.AllocsPerDetectWide = testing.AllocsPerRun(100, func() { wfs.DetectWords(pick, det[:]) })
		sc.AllocsPerRunWide = testing.AllocsPerRun(100, func() { ws.RunWide() })

		// End-to-end serial campaign throughput, plus the equivalence
		// flags for the scheduling modes.
		run := func(cfg sim.CampaignConfig) *sim.CampaignResult {
			cfg.Patterns = *flagSimN
			return sim.RunCampaignConfig(c, faults, [][]float64{weights}, seed, cfg)
		}
		var ref *sim.CampaignResult
		d := measure(minTime, func() { ref = run(sim.CampaignConfig{Workers: 1}) })
		sc.CampaignPatternsPerSec = float64(*flagSimN) / d.Seconds()
		sc.PatternShardsIdentical = simCampaignsEqual(ref, run(sim.CampaignConfig{PatternShards: 4}))
		sc.SharedGoodIdentical = simCampaignsEqual(ref, run(sim.CampaignConfig{Workers: 2, GoodMachine: sim.GoodMachineShared}))
		allIdentical = allIdentical && sc.WideIdentical && sc.PatternShardsIdentical && sc.SharedGoodIdentical

		summary.Circuits = append(summary.Circuits, sc)
		t.Add(name, fmt.Sprint(sc.Faults), fmt.Sprint(sc.LanesChosen),
			report.Sci(sc.DetectWordsPerSec),
			fmt.Sprintf("%s/%s", report.Sci(perW[4]), report.Sci(perW[8])),
			report.Sci(sc.CampaignPatternsPerSec),
			fmt.Sprintf("%.0f/%.0f", sc.AllocsPerDetectWide, sc.AllocsPerRunWide),
			fmt.Sprint(sc.WideIdentical),
			fmt.Sprint(sc.PatternShardsIdentical), fmt.Sprint(sc.SharedGoodIdentical))
	}
	fmt.Print(t)

	data, err := json.MarshalIndent(&summary, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*flagSimOut, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *flagSimOut)
	if !allIdentical {
		fmt.Fprintln(os.Stderr, "benchgen: equivalence flag false — kernels disagree; failing")
		os.Exit(1)
	}
}
