// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (paper, sweep or service) from a seeded op list of fixed
// size, checks every result, and prints its metrics as one JSON object
// on the last line of standard output:
//
//	perfbench --workload paper --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics of the named workload.
// --trace 1 prints the per-layer breakdown of all three workloads: each
// runs in its own child process, and every other op times each call the
// benchmark makes into a layer. Spans go to .bench_out/ and a self-time
// table to standard error.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it from source first. README.md in this directory lists what
// each metric measures and which layer moves it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

var processStart = time.Now()

// runBudget bounds a whole run, so a hung op still ends the process
// well inside the three minutes a run may take.
const runBudget = 170 * time.Second

// outDir holds everything a run writes: span dumps and the daemon's
// journal directories.
const outDir = ".bench_out"

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper, sweep or service")
	seed := fs.Uint64("seed", 1, "seed of the op list")
	seconds := fs.Float64("seconds", 15, "nominal run length; sizes the op list")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of every workload")
	child := fs.Bool("child", false, "run one workload half traced and report its layers (used by --trace 1)")
	probeOnly := fs.Bool("probe", false, "print one host probe and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probeOnly {
		if err := json.NewEncoder(os.Stdout).Encode(runProbe()); err != nil {
			return fail(err)
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("--seconds must be positive"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	switch {
	case *child:
		return runChild(ctx, w, *seed, *seconds)
	case *traceMode == 0:
		return runUntraced(ctx, w, *seed, *seconds)
	case *traceMode == 1:
		return runTraced(ctx, w, *seed, *seconds)
	}
	return fail(fmt.Errorf("--trace must be 0 or 1"))
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}

// scratchDir is a private directory for one set-up of a workload.
func scratchDir(workload string, k int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), k))
}

// hostInfo is recorded with every run, beside the metrics.
type hostInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	ProbeStart *probe `json:"probe_start,omitempty"`
	ProbeEnd   *probe `json:"probe_end,omitempty"`
}

func newHostInfo() hostInfo {
	return hostInfo{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// runInfo is the line printed before the result.
type runInfo struct {
	Workload          string            `json:"workload"`
	Seed              uint64            `json:"seed"`
	Seconds           float64           `json:"seconds"`
	Ops               int               `json:"ops"`
	Host              hostInfo          `json:"host"`
	SetupRunsS        []float64         `json:"setup_runs_s,omitempty"`
	ProcessToFirstOpS float64           `json:"process_to_first_op_s,omitempty"`
	TailPercentile    float64           `json:"tail_percentile,omitempty"`
	TailBeyond        int               `json:"tail_samples_beyond,omitempty"`
	LatencySamples    int               `json:"latency_samples,omitempty"`
	CheckError        string            `json:"check_error,omitempty"`
	Children          []json.RawMessage `json:"children,omitempty"`
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, seed uint64, seconds float64) int {
	info := runInfo{Workload: w.name, Seed: seed, Seconds: seconds, Ops: w.opCount(seconds), Host: newHostInfo()}
	var err error
	if info.Host.ProbeStart, err = probeHost(); err != nil {
		return fail(err)
	}
	// setup_s is the median of w.setups set-ups: half of the spare ones
	// before the ops and half after, so they sample the host at two
	// times; the last one before the ops is the one that runs.
	cfg := passConfig{seed: seed, ops: info.Ops}
	if err := spareSetups(w, cfg, w.setups/2, &info.SetupRunsS); err != nil {
		return fail(err)
	}
	p, err := timedSetup(w, cfg, &info.SetupRunsS)
	if err != nil {
		return fail(err)
	}
	runtime.GC() // set-up garbage is not the ops' to collect
	info.ProcessToFirstOpS = time.Since(processStart).Seconds()
	cpu0 := cpuTime()
	o, err := p.run(ctx, nil)
	cpu := cpuTime() - cpu0
	if err != nil {
		p.close()
		return fail(err)
	}
	checkErr := errors.Join(p.check(ctx), p.close())
	if err := spareSetups(w, cfg, w.setups-1-w.setups/2, &info.SetupRunsS); err != nil {
		return fail(err)
	}
	if info.Host.ProbeEnd, err = probeHost(); err != nil {
		return fail(err)
	}
	done := len(o.latMs)
	if done == 0 {
		return fail(fmt.Errorf("%s: all %d ops failed", w.name, o.attempted))
	}
	sorted := append([]float64(nil), o.latMs...)
	sort.Float64s(sorted)
	p50, _ := percentile(sorted, 50)
	var tailMs float64
	info.TailPercentile, tailMs, info.TailBeyond = tail(sorted)
	info.LatencySamples = done
	metrics := map[string]float64{
		"setup_s":         median(info.SetupRunsS),
		"ops_per_s":       float64(done) / o.wall.Seconds(),
		"latency_p50_ms":  p50,
		"latency_tail_ms": tailMs,
		"cpu_ms_per_op":   ms(cpu) / float64(done),
		"max_rss_mb":      maxRSSMB(),
		"coverage_pct":    100 * mean(o.coverage),
		"success_pct":     100 * float64(o.attempted-o.failed) / float64(o.attempted),
	}
	if checkErr != nil {
		info.CheckError = checkErr.Error()
	}
	return emit(os.Stdout, &info, checkErr == nil && o.failed == 0, o.attempted, o.failed, endToEnd, metrics)
}

// timedSetup sets w up once, as in a fresh process (heap collected and
// its memory returned, so every set-up pays the same page faults), and
// appends the time it took to times.
func timedSetup(w *workload, cfg passConfig, times *[]float64) (pass, error) {
	cfg.dir = scratchDir(w.name, len(*times))
	debug.FreeOSMemory()
	t0 := time.Now()
	p, err := w.setup(cfg)
	*times = append(*times, time.Since(t0).Seconds())
	return p, err
}

// spareSetups times n set-ups that are closed without running.
func spareSetups(w *workload, cfg passConfig, n int, times *[]float64) error {
	for k := 0; k < n; k++ {
		p, err := timedSetup(w, cfg, times)
		if err != nil {
			return err
		}
		if err := p.close(); err != nil {
			return err
		}
	}
	return nil
}

// childReport is what a --child process prints for its parent.
type childReport struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      runInfo            `json:"info"`
}

// runChild runs one workload's op list with every other op traced and
// reports the per-layer metrics, with the tracing overhead measured
// between the traced and the untraced ops of the same pass.
func runChild(ctx context.Context, w *workload, seed uint64, seconds float64) int {
	rep := childReport{Info: runInfo{Workload: w.name, Seed: seed, Seconds: seconds, Ops: w.opCount(seconds), Host: newHostInfo()}}
	p, err := w.setup(passConfig{seed: seed, ops: rep.Info.Ops, dir: scratchDir(w.name, 0)})
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	runtime.GC()
	o, err := p.run(ctx, tr)
	if err != nil {
		p.close()
		return fail(err)
	}
	if err := errors.Join(p.check(ctx), p.close()); err != nil {
		rep.Info.CheckError = err.Error()
	}
	rep.Attempted, rep.Failed = o.attempted, o.failed
	rep.Correct = rep.Info.CheckError == "" && o.failed == 0
	st := tr.selfTimes()
	op := st["op"]
	if op == nil {
		return fail(fmt.Errorf("%s: no traced op completed", w.name))
	}
	// A closed loop's ops/s is 1 / mean latency, for each half.
	var sum [2]float64
	var n [2]int
	for i, l := range o.latMs {
		k := 0
		if o.traced[i] {
			k = 1
		}
		sum[k] += l
		n[k]++
	}
	rep.Metrics = p.layers(o, tr)
	rep.Metrics["trace."+w.name+".overhead_pct"] = 100 * (1 - (float64(n[1])/sum[1])/(float64(n[0])/sum[0]))
	rep.Metrics["trace."+w.name+".layer_pct"] = 100 * (1 - op.Self.Seconds()/op.Total.Seconds())
	writeTable(os.Stderr, fmt.Sprintf("== %s: self time by span (%d ops traced)", w.name, op.Calls), st, op.Total)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	if err := tr.dump(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return fail(fmt.Errorf("write spans: %w", err))
	}
	if err := json.NewEncoder(os.Stdout).Encode(&rep); err != nil {
		return fail(err)
	}
	return 0
}

// runTraced runs every workload as a --child process and prints the
// per-layer metrics of all of them.
func runTraced(ctx context.Context, w *workload, seed uint64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	info := runInfo{Workload: w.name, Seed: seed, Seconds: seconds, Host: newHostInfo()}
	if info.Host.ProbeStart, err = probeHost(); err != nil {
		return fail(err)
	}
	correct, attempted, failed := true, 0, 0
	metrics := make(map[string]float64)
	share := seconds / float64(len(workloads))
	for _, cw := range workloads {
		cmd := exec.CommandContext(ctx, self, "--child", "--workload", cw.name,
			"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(share, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fail(fmt.Errorf("%s child: %w", cw.name, err))
		}
		line, err := lastLine(out)
		if err != nil {
			return fail(fmt.Errorf("%s child: %w", cw.name, err))
		}
		var rep childReport
		if err := json.Unmarshal(line, &rep); err != nil {
			return fail(fmt.Errorf("%s child output: %w", cw.name, err))
		}
		if !rep.Correct {
			correct = false
			info.CheckError += fmt.Sprintf("%s: %d of %d ops failed; %s. ", cw.name, rep.Failed, rep.Attempted, rep.Info.CheckError)
		}
		attempted += rep.Attempted
		failed += rep.Failed
		for k, v := range rep.Metrics {
			metrics[k] = v
		}
		info.Children = append(info.Children, line)
	}
	if info.Host.ProbeEnd, err = probeHost(); err != nil {
		return fail(err)
	}
	return emit(os.Stdout, &info, correct, attempted, failed, perLayer, metrics)
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) ([]byte, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, fmt.Errorf("no output")
	}
	return last, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the info line and then the result line with exactly the
// metrics in defs. It returns the exit code: 0 only for a correct run.
func emit(w io.Writer, info *runInfo, correct bool, attempted, failed int, defs []metricDef, values map[string]float64) int {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s has no finite value", d.name))
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]*runInfo{"info": info}); err != nil {
		return fail(err)
	}
	if err := enc.Encode(&res); err != nil {
		return fail(err)
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: results failed their checks: %s\n", info.CheckError)
		return 1
	}
	return 0
}
