// Command benchgen emits the built-in evaluation circuits as .bench
// netlists and benchmarks the parallel campaign engine.
//
// Usage:
//
//	benchgen -circuit s1                 # print S1 to stdout
//	benchgen -circuit c7552 -o c7552.bench
//	benchgen -list                       # list available circuits
//	benchgen -stats                      # structural statistics table
//	benchgen -parbench                   # serial-vs-parallel campaign
//	                                     # throughput -> BENCH_parallel.json
//	benchgen -servebench                 # optirandd service throughput and
//	                                     # cache-hit latency -> BENCH_service.json
//	benchgen -internbench                # inline vs content-addressed task
//	                                     # request bytes -> BENCH_intern.json
//	benchgen -simbench                   # compiled vs pre-PR fault-simulation
//	                                     # kernel throughput -> BENCH_sim.json
//	benchgen -fedbench                   # federated daemon tree: 1-leaf vs
//	                                     # N-leaf throughput, route-affinity
//	                                     # cache hits, leaf-kill requeue
//	                                     # -> BENCH_fed.json
//	benchgen -adaptbench                 # closed-loop (adaptive) campaigns vs
//	                                     # the static optimum: patterns to
//	                                     # coverage targets, re-weight overhead
//	                                     # -> BENCH_adapt.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"optirand"
	"optirand/internal/gen"
	"optirand/internal/report"
)

var (
	flagCircuit  = flag.String("circuit", "", "benchmark name (see -list)")
	flagOut      = flag.String("o", "", "output file (default stdout)")
	flagList     = flag.Bool("list", false, "list available circuits")
	flagStats    = flag.Bool("stats", false, "print structural statistics for all circuits")
	flagParbench = flag.Bool("parbench", false, "benchmark serial vs parallel campaigns, write a JSON summary")
	flagParOut   = flag.String("parout", "BENCH_parallel.json", "parbench: summary output path")
	flagParCirc  = flag.String("parcircuits", "c6288,s2,c7552", "parbench: comma-separated circuits")
	flagParN     = flag.Int("parn", 4096, "parbench: patterns per campaign")
	flagParMinMS = flag.Int("parminms", 300, "parbench: minimum measured time per configuration (ms)")
)

// parRun is one measured worker configuration of parbench.
type parRun struct {
	Workers       int     `json:"workers"`
	Seconds       float64 `json:"seconds"` // per campaign
	PatternFaults float64 `json:"pattern_faults_per_sec"`
	SpeedupVs1    float64 `json:"speedup_vs_serial"`
	Identical     bool    `json:"identical_to_serial"`
}

// parCircuit is the parbench record of one circuit.
type parCircuit struct {
	Name     string   `json:"name"`
	Gates    int      `json:"gates"`
	Faults   int      `json:"faults"`
	Patterns int      `json:"patterns"`
	Coverage float64  `json:"coverage"`
	Runs     []parRun `json:"runs"`
}

// parSummary is the BENCH_parallel.json schema.
type parSummary struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`
	Seed       uint64       `json:"seed"`
	Circuits   []parCircuit `json:"circuits"`
}

// measure times fn (one full campaign) repeatedly until the total
// exceeds minTime, returning the best single-run time — the standard
// guard against scheduler noise on loaded machines.
func measure(minTime time.Duration, fn func()) time.Duration {
	best := time.Duration(0)
	total := time.Duration(0)
	for total < minTime {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// parbench measures serial vs fault-sharded-parallel campaign
// throughput and writes the machine-readable summary the perf tooling
// consumes.
func parbench() {
	const seed = 1987
	minTime := time.Duration(*flagParMinMS) * time.Millisecond
	var workerGrid []int
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		dup := false
		for _, seen := range workerGrid {
			dup = dup || seen == w
		}
		if !dup {
			workerGrid = append(workerGrid, w)
		}
	}

	summary := parSummary{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
	}
	t := report.NewTable("Parallel campaign throughput (best of repeated runs)",
		"Circuit", "Workers", "Campaign time", "Pattern-faults/s", "Speedup", "Identical")
	for _, name := range strings.Split(*flagParCirc, ",") {
		name = strings.TrimSpace(name)
		b, ok := optirand.BenchmarkByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgen: unknown circuit %q (try -list)\n", name)
			os.Exit(2)
		}
		c := b.Build()
		faults := optirand.CollapsedFaults(c)
		spec := optirand.CampaignSpec{
			Circuit: c, Faults: faults, Source: optirand.Weights(optirand.UniformWeights(c)),
			Patterns: *flagParN, Seed: seed,
		}
		ref := localCampaign(optirand.NewRunner(), spec)

		pc := parCircuit{
			Name:     name,
			Gates:    c.NumGates(),
			Faults:   len(faults),
			Patterns: *flagParN,
			Coverage: ref.Coverage(),
		}
		var serial time.Duration
		for _, w := range workerGrid {
			r := optirand.NewRunner(optirand.WithSimWorkers(w))
			var last *optirand.CampaignResult
			d := measure(minTime, func() { last = localCampaign(r, spec) })
			if w == 1 {
				serial = d
			}
			identical := campaignsEqual(ref, last)
			run := parRun{
				Workers:       w,
				Seconds:       d.Seconds(),
				PatternFaults: float64(*flagParN) * float64(len(faults)) / d.Seconds(),
				SpeedupVs1:    serial.Seconds() / d.Seconds(),
				Identical:     identical,
			}
			pc.Runs = append(pc.Runs, run)
			t.Add(name, fmt.Sprint(w), d.Round(time.Microsecond).String(),
				report.Sci(run.PatternFaults), fmt.Sprintf("%.2fx", run.SpeedupVs1),
				fmt.Sprint(identical))
		}
		summary.Circuits = append(summary.Circuits, pc)
	}
	fmt.Print(t)

	data, err := json.MarshalIndent(&summary, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*flagParOut, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *flagParOut)
}

// localCampaign runs spec on the local Runner r, exiting on a rejected
// spec.
func localCampaign(r *optirand.Runner, spec optirand.CampaignSpec) *optirand.CampaignResult {
	res, err := r.Campaign(context.Background(), spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	return res
}

// campaignsEqual reports full equality of two campaign results
// (coverage, first-detection indices, curve).
func campaignsEqual(a, b *optirand.CampaignResult) bool {
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

func main() {
	flag.Parse()
	switch {
	case *flagParbench:
		parbench()
	case *flagServebench:
		servebench()
	case *flagInternbench:
		internbench()
	case *flagSimbench:
		simbench()
	case *flagSweepbench:
		sweepbench()
	case *flagFedbench:
		fedbench()
	case *flagAdaptbench:
		adaptbench()
	case *flagList:
		t := report.NewTable("Built-in evaluation circuits", "Name", "Paper", "Description")
		for _, b := range optirand.Benchmarks() {
			t.Add(b.Name, b.PaperName, b.Description)
		}
		fmt.Print(t)
	case *flagStats:
		t := report.NewTable("Structural statistics", "Name", "Inputs", "Outputs", "Gates", "Depth", "Lines", "MaxFanout")
		for _, b := range optirand.Benchmarks() {
			c := b.Build()
			s := c.Stats()
			t.Add(b.Name, fmt.Sprint(s.Inputs), fmt.Sprint(s.Outputs), fmt.Sprint(s.Gates),
				fmt.Sprint(s.Depth), fmt.Sprint(s.Lines), fmt.Sprint(s.FanoutMax))
		}
		fmt.Print(t)
	case *flagCircuit != "":
		b, ok := gen.ByName(*flagCircuit)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgen: unknown circuit %q (try -list)\n", *flagCircuit)
			os.Exit(2)
		}
		out := os.Stdout
		if *flagOut != "" {
			f, err := os.Create(*flagOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := optirand.WriteBench(out, b.Build()); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
