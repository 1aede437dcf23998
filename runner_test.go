package optirand_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"optirand"
	"optirand/internal/dist"
)

// testSweepSpec builds a small circuits × weightings × seeds grid
// (including a mixture source) shared by the cross-backend suites.
func testSweepSpec(t *testing.T) (optirand.SweepSpec, int) {
	t.Helper()
	spec := optirand.SweepSpec{
		BaseSeed:    1987,
		Repetitions: 2,
		Patterns:    320,
		CurveStep:   100,
	}
	cells := 0
	for _, name := range []string{"c432", "c880"} {
		b, ok := optirand.BenchmarkByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		c := b.Build()
		n := c.NumInputs()
		uniform := optirand.UniformWeights(c)
		skewed := make([]float64, n)
		for i := range skewed {
			skewed[i] = 0.1 + 0.8*float64(i)/float64(n)
		}
		spec.Circuits = append(spec.Circuits, optirand.SweepCircuit{
			Name:    name,
			Circuit: c,
			Faults:  optirand.CollapsedFaults(c),
			Weightings: []optirand.SweepWeighting{
				{Name: "uniform", Source: optirand.Weights(uniform)},
				{Name: "mixture", Source: optirand.Mixture(uniform, skewed)},
				// Closed-loop campaigns ride the same grid: both
				// re-weighting strategies must be byte-identical on
				// every backend, like everything else.
				{Name: "adaptive-reopt", Source: optirand.Adaptive(optirand.Weights(uniform),
					optirand.AdaptiveReopt(), optirand.AdaptiveBlock(128), optirand.AdaptiveReoptSweeps(1))},
				{Name: "adaptive-bandit", Source: optirand.Adaptive(optirand.Mixture(uniform, skewed),
					optirand.AdaptiveBandit(0.1), optirand.AdaptiveBlock(128))},
			},
		})
		cells += 4
	}
	return spec, cells * spec.Repetitions
}

// startDaemon hosts an optirandd handler on a loopback listener and
// returns its address.
func startDaemon(t *testing.T, opts dist.ServerOptions) string {
	t.Helper()
	return startLeafDaemon(t, opts).addr
}

// testDaemon is a restartable daemon for federation tests: kill drops
// it hard (in-flight connections included — a crashed leaf), restart
// brings a fresh daemon up on the same address so the ring readmits it
// at its old positions.
type testDaemon struct {
	t    *testing.T
	addr string
	opts dist.ServerOptions

	mu      sync.Mutex
	srv     *dist.Server
	httpSrv *http.Server
}

// startLeafDaemon hosts a daemon on a loopback listener (or on
// d.addr when restarting) and registers cleanup.
func startLeafDaemon(t *testing.T, opts dist.ServerOptions) *testDaemon {
	t.Helper()
	d := &testDaemon{t: t, addr: "127.0.0.1:0", opts: opts}
	d.restart()
	t.Cleanup(d.kill)
	return d
}

func (d *testDaemon) kill() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.httpSrv == nil {
		return
	}
	d.httpSrv.Close()
	d.srv.Close()
	d.httpSrv, d.srv = nil, nil
}

func (d *testDaemon) restart() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.httpSrv != nil {
		d.t.Fatalf("daemon %s restarted while running", d.addr)
	}
	srv := dist.NewServer(d.opts)
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		d.t.Fatal(err)
	}
	d.addr = ln.Addr().String()
	d.srv, d.httpSrv = srv, &http.Server{Handler: srv}
	go d.httpSrv.Serve(ln)
}

// equalResults demands two result sets agree positionally in label,
// seed, and every campaign byte.
func equalResults(t *testing.T, label string, ref, got []optirand.TaskResult) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].Task.Label != got[i].Task.Label || ref[i].Task.Seed != got[i].Task.Seed {
			t.Fatalf("%s: slot %d is task %s/%d, want %s/%d", label, i,
				got[i].Task.Label, got[i].Task.Seed, ref[i].Task.Label, ref[i].Task.Seed)
		}
		if !reflect.DeepEqual(ref[i].Campaign, got[i].Campaign) {
			t.Fatalf("%s: slot %d (%s): campaign differs from the serial reference", label, i, ref[i].Task.Label)
		}
	}
}

// TestRunnerCrossBackendEquivalence is the acceptance contract of the
// Runner redesign: one SweepSpec produces byte-identical results on
// every backend a Runner can be constructed with — local-serial,
// local-parallel at several worker counts, dispatcher-cached (cold and
// warm), and a live optirandd daemon (cold and warm, with and without
// a client-side cache).
func TestRunnerCrossBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	spec, nTasks := testSweepSpec(t)

	serial := optirand.NewRunner(optirand.WithWorkers(1))
	defer serial.Close()
	ref, err := serial.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != nTasks {
		t.Fatalf("grid expanded to %d tasks, want %d", len(ref), nTasks)
	}

	runners := map[string]*optirand.Runner{
		"local-parallel-2":   optirand.NewRunner(optirand.WithWorkers(2)),
		"local-parallel-3":   optirand.NewRunner(optirand.WithWorkers(3), optirand.WithSimWorkers(2)),
		"local-parallel-max": optirand.NewRunner(optirand.WithWorkers(0)),
		// Intra-campaign scheduling of the compiled kernel: pattern
		// ranges instead of fault shards, and the shared/auto
		// good-machine modes — all bit-identical by construction.
		"local-pattern-shards": optirand.NewRunner(optirand.WithWorkers(2), optirand.WithSimShards(3)),
		"local-shared-goodmachine": optirand.NewRunner(
			optirand.WithSimWorkers(3), optirand.WithGoodMachine(optirand.GoodMachineShared)),
		"local-auto-goodmachine": optirand.NewRunner(
			optirand.WithSimWorkers(2), optirand.WithGoodMachine(optirand.GoodMachineAuto)),
		"dispatcher-cached": optirand.NewRunner(optirand.WithWorkers(3), optirand.WithCache(64)),
		// The default remote transport interns circuits and fault
		// lists by content address…
		"remote-interned": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 3, SimWorkers: 2, CacheSize: 256})),
			optirand.WithWorkers(4)),
		// …and must be byte-identical to the same daemon fed inline
		// tasks.
		"remote-inline": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 3, CacheSize: 256})),
			optirand.WithWorkers(4), optirand.WithInlineCircuits()),
		// Whole-batch transport: one /v1/sweep request per sweep, the
		// daemon's fleet does the fan-out, results stream back NDJSON.
		"remote-streamed": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2, SimWorkers: 2, CacheSize: 256})),
			optirand.WithRemoteStreaming()),
		"remote-client-cached": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: -1})),
			optirand.WithWorkers(2), optirand.WithCache(64)),
		// A federated tree: a front daemon routing every task to one of
		// three leaf daemons over the consistent-hash ring. The front's
		// own cache is disabled so the warm pass re-routes — leaf-side
		// route affinity must answer it byte-identically anyway.
		"federated-tree": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{
				Workers:   3,
				CacheSize: -1,
				Upstreams: []string{
					startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 256, Role: dist.RoleLeaf}),
					startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 256, Role: dist.RoleLeaf}),
					startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 256, Role: dist.RoleLeaf}),
				},
				RetryDelay: 5 * time.Millisecond,
			})),
			optirand.WithWorkers(4)),
	}
	for label, r := range runners {
		got, err := r.Sweep(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		equalResults(t, label+"/cold", ref, got)
		// Second submission: cached backends answer from their
		// content-addressed caches, uncached ones re-execute — the
		// bytes cannot differ either way.
		warm, err := r.Sweep(ctx, spec)
		if err != nil {
			t.Fatalf("%s warm: %v", label, err)
		}
		equalResults(t, label+"/warm", ref, warm)
		r.Close()
	}

	// Persisted-cache-after-restart: a daemon warms its cache, shuts
	// down (persisting the snapshot), and a fresh daemon loaded from
	// the same directory answers the whole grid from cache —
	// byte-identical to the serial reference.
	dir := t.TempDir()
	srv1 := dist.NewServer(dist.ServerOptions{Workers: 2, CacheSize: 256, CacheDir: dir})
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv1 := &http.Server{Handler: srv1}
	go httpSrv1.Serve(ln1)
	r1 := optirand.NewRunner(optirand.WithRemote(ln1.Addr().String()), optirand.WithWorkers(3))
	got, err := r1.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("pre-restart: %v", err)
	}
	equalResults(t, "remote-persisted/pre-restart", ref, got)
	r1.Close()
	httpSrv1.Close()
	srv1.Close() // persists the warm set

	r2 := optirand.NewRunner(
		optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 256, CacheDir: dir})),
		optirand.WithWorkers(3))
	defer r2.Close()
	warm, err := r2.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("post-restart: %v", err)
	}
	equalResults(t, "remote-persisted/post-restart", ref, warm)
	// The restarted daemon must have answered from its reloaded cache,
	// not by re-executing: its stats report one hit per task.
	resp, err := http.Get("http://" + r2.Remote() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache *dist.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Cache == nil || stats.Cache.Hits != uint64(nTasks) || stats.Cache.Loaded == 0 {
		t.Fatalf("restarted daemon cache stats %+v, want %d hits from a loaded snapshot", stats.Cache, nTasks)
	}
}

// frontFederation fetches the federation section of a front daemon's
// /v1/stats.
func frontFederation(t *testing.T, addr string) *dist.FederationStats {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Role       string                `json:"role"`
		Federation *dist.FederationStats `json:"federation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Role != dist.RoleFront || stats.Federation == nil {
		t.Fatalf("daemon %s reports role %q with federation %v; want a front with federation stats", addr, stats.Role, stats.Federation)
	}
	return stats.Federation
}

// TestRunnerFederatedTreeKillAndRejoin is the federation acceptance
// contract at the public API: a sweep through a 3-leaf tree survives a
// leaf killed mid-sweep — the front requeues the dead leaf's tasks
// onto the survivors — byte-identical to the serial in-process
// reference; the restarted leaf rejoins the ring via the health
// checker; and upstream order is irrelevant (a front configured with
// the leaves in a different order answers identically).
func TestRunnerFederatedTreeKillAndRejoin(t *testing.T) {
	ctx := context.Background()
	spec, nTasks := testSweepSpec(t)

	serial := optirand.NewRunner(optirand.WithWorkers(1))
	defer serial.Close()
	ref, err := serial.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	leafOpts := dist.ServerOptions{Workers: 2, CacheSize: 64, Role: dist.RoleLeaf}
	leaves := []*testDaemon{
		startLeafDaemon(t, leafOpts),
		startLeafDaemon(t, leafOpts),
		startLeafDaemon(t, leafOpts),
	}
	// Deliberately not configuration order: the ring hashes URLs, so
	// upstream order must not matter.
	upstreams := []string{leaves[2].addr, leaves[0].addr, leaves[1].addr}
	front := startLeafDaemon(t, dist.ServerOptions{
		Workers:        3,
		CacheSize:      -1, // every pass re-routes; identity must come from the tree itself
		Upstreams:      upstreams,
		HealthInterval: 100 * time.Millisecond,
		RetryDelay:     5 * time.Millisecond,
	})
	r := optirand.NewRunner(optirand.WithRemote(front.addr), optirand.WithWorkers(4))
	defer r.Close()

	// Cold pass, killing a leaf that has live routed work as soon as
	// the first result arrives. The kill drops its in-flight
	// connections, so the front must mark it down and requeue.
	var killOnce sync.Once
	var victim *testDaemon
	got := make([]optirand.TaskResult, nTasks)
	err = r.SweepEach(ctx, spec, func(i int, res optirand.TaskResult) {
		got[i] = res
		killOnce.Do(func() {
			for _, ls := range frontFederation(t, front.addr).PerLeaf {
				if !ls.Alive || ls.Routed == 0 {
					continue
				}
				for _, l := range leaves {
					if strings.HasSuffix(ls.URL, l.addr) {
						victim = l
					}
				}
				break
			}
			if victim == nil {
				t.Error("no live leaf with routed work to kill")
				return
			}
			victim.kill()
		})
	})
	if err != nil {
		t.Fatalf("sweep with a mid-flight leaf kill: %v", err)
	}
	equalResults(t, "federated/kill", ref, got)
	if victim == nil {
		t.Fatal("the kill never happened")
	}

	// The health checker notices the corpse even with no traffic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := frontFederation(t, front.addr)
		if st.Live == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front still reports %d live leaves %v after the kill", st.Live, st.PerLeaf)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Survivors carry the whole grid.
	midkill, err := r.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("sweep on the survivors: %v", err)
	}
	equalResults(t, "federated/survivors", ref, midkill)

	// Restart on the same address: the health loop readmits the leaf
	// at its old ring positions, and the tree still answers
	// byte-identically.
	victim.restart()
	for {
		st := frontFederation(t, front.addr)
		if st.Live == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front reports %d live leaves %v; the restarted leaf never rejoined", st.Live, st.PerLeaf)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rejoined, err := r.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("sweep after the rejoin: %v", err)
	}
	equalResults(t, "federated/rejoined", ref, rejoined)

	// A front over the same leaves in a different upstream order is
	// the same tree: ring positions hash from leaf URLs, not indices.
	front2 := startLeafDaemon(t, dist.ServerOptions{
		Workers:        3,
		CacheSize:      -1,
		Upstreams:      []string{leaves[0].addr, leaves[1].addr, leaves[2].addr},
		HealthInterval: 100 * time.Millisecond,
		RetryDelay:     5 * time.Millisecond,
	})
	r2 := optirand.NewRunner(optirand.WithRemote(front2.addr), optirand.WithWorkers(3))
	defer r2.Close()
	reordered, err := r2.Sweep(ctx, spec)
	if err != nil {
		t.Fatalf("sweep through the reordered front: %v", err)
	}
	equalResults(t, "federated/reordered-front", ref, reordered)
}

// TestRunnerSweepEachMatchesSweep proves the streaming contract on
// every backend kind: SweepEach delivers each result exactly once,
// and the positional merge reproduces Sweep's slice byte for byte.
func TestRunnerSweepEachMatchesSweep(t *testing.T) {
	ctx := context.Background()
	spec, nTasks := testSweepSpec(t)

	serial := optirand.NewRunner()
	defer serial.Close()
	ref, err := serial.Sweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	runners := map[string]*optirand.Runner{
		"local-serial":      optirand.NewRunner(optirand.WithWorkers(1)),
		"local-parallel":    optirand.NewRunner(optirand.WithWorkers(4)),
		"dispatcher-cached": optirand.NewRunner(optirand.WithWorkers(2), optirand.WithCache(64)),
		"remote-daemon": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 64})),
			optirand.WithWorkers(3)),
		// One streaming /v1/sweep request per SweepEach: each delivery
		// crosses the network as the daemon completes it.
		"remote-streamed": optirand.NewRunner(
			optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2, CacheSize: 64})),
			optirand.WithRemoteStreaming()),
	}
	for label, r := range runners {
		for _, temp := range []string{"cold", "warm"} {
			got := make([]optirand.TaskResult, nTasks)
			calls := 0
			err := r.SweepEach(ctx, spec, func(i int, res optirand.TaskResult) {
				calls++
				if got[i].Campaign != nil {
					t.Fatalf("%s/%s: slot %d delivered twice", label, temp, i)
				}
				got[i] = res
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", label, temp, err)
			}
			if calls != nTasks {
				t.Fatalf("%s/%s: %d deliveries, want %d", label, temp, calls, nTasks)
			}
			equalResults(t, label+"/"+temp, ref, got)
		}
		r.Close()
	}
}

// TestRunnerOptimizeRemoteMatchesLocal proves Runner.Optimize produces
// identical weights and test lengths in-process and through a live
// daemon, and that non-portable options are rejected remotely with a
// useful error.
func TestRunnerOptimizeRemoteMatchesLocal(t *testing.T) {
	ctx := context.Background()
	b, _ := optirand.BenchmarkByName("s1")
	c := b.Build()
	faults := optirand.CollapsedFaults(c)
	spec := optirand.OptimizeSpec{
		Circuit: c, Faults: faults,
		Options: optirand.OptimizeOptions{Quantize: 0.05, MaxSweeps: 4},
	}

	local := optirand.NewRunner()
	defer local.Close()
	ref, err := local.Optimize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	remote := optirand.NewRunner(optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 2})))
	defer remote.Close()
	got, err := remote.Optimize(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Weights, got.Weights) {
		t.Fatal("remote optimization weights differ from local")
	}
	if ref.InitialN != got.InitialN || ref.FinalN != got.FinalN || ref.Sweeps != got.Sweeps {
		t.Fatalf("remote lengths (%g, %g, %d) differ from local (%g, %g, %d)",
			got.InitialN, got.FinalN, got.Sweeps, ref.InitialN, ref.FinalN, ref.Sweeps)
	}

	badSpec := spec
	badSpec.Options.Jitter = 0.1
	if _, err := remote.Optimize(ctx, badSpec); err == nil || !strings.Contains(err.Error(), "wire") {
		t.Fatalf("non-portable remote options: err = %v, want a wire-portability error", err)
	}
}

// TestRunnerStreamRules pins the Stream-source policy: local Runners
// execute them in-process, remote Runners and sweeps reject them with
// actionable errors, and an empty source is caught before execution.
func TestRunnerStreamRules(t *testing.T) {
	ctx := context.Background()
	b, _ := optirand.BenchmarkByName("c432")
	c := b.Build()
	faults := optirand.CollapsedFaults(c)

	remote := optirand.NewRunner(optirand.WithRemote("127.0.0.1:1")) // never dialled
	defer remote.Close()
	src := optirand.NewWeightedLFSR(optirand.UniformWeights(c), 1)
	_, err := remote.Campaign(ctx, optirand.CampaignSpec{
		Circuit: c, Faults: faults, Source: optirand.Stream(src.NextWords), Patterns: 64,
	})
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("stream on remote Runner: err = %v, want a remote-rejection error", err)
	}

	local := optirand.NewRunner()
	defer local.Close()
	_, err = local.Sweep(ctx, optirand.SweepSpec{
		Patterns: 64,
		Circuits: []optirand.SweepCircuit{{
			Name: "c432", Circuit: c, Faults: faults,
			Weightings: []optirand.SweepWeighting{{Name: "hw", Source: optirand.Stream(src.NextWords)}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "swept") {
		t.Fatalf("stream in sweep: err = %v, want a sweep-rejection error", err)
	}

	_, err = local.Campaign(ctx, optirand.CampaignSpec{Circuit: c, Faults: faults, Patterns: 64})
	if err == nil || !strings.Contains(err.Error(), "pattern source") {
		t.Fatalf("zero source: err = %v, want a no-pattern-source error", err)
	}
}

// TestRunnerMidBatchCancelAgainstDaemon cancels a streaming sweep
// after its first delivery against a live optirandd: SweepEach must
// return ctx.Err() without draining the grid, and the Runner must
// stay usable afterwards.
func TestRunnerMidBatchCancelAgainstDaemon(t *testing.T) {
	spec, nTasks := testSweepSpec(t)
	r := optirand.NewRunner(
		optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 1, CacheSize: -1})),
		optirand.WithWorkers(1))
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	err := r.SweepEach(ctx, spec, func(int, optirand.TaskResult) {
		delivered++
		if delivered == 1 {
			cancel()
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered >= nTasks {
		t.Fatalf("%d campaigns delivered after mid-batch cancel", delivered)
	}

	// A streaming-transport Runner reports cancellation mid-stream the
	// same way: ctx.Err(), not a transport error.
	streamed := optirand.NewRunner(
		optirand.WithRemote(startDaemon(t, dist.ServerOptions{Workers: 1, CacheSize: -1})),
		optirand.WithRemoteStreaming())
	defer streamed.Close()
	sctx, scancel := context.WithCancel(context.Background())
	sdelivered := 0
	err = streamed.SweepEach(sctx, spec, func(int, optirand.TaskResult) {
		sdelivered++
		if sdelivered == 1 {
			scancel()
		}
	})
	scancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("streamed: err = %v, want context.Canceled", err)
	}
	if sdelivered >= nTasks {
		t.Fatalf("streamed: %d campaigns delivered after mid-stream cancel", sdelivered)
	}

	// Local Runners honor cancellation the same way.
	local := optirand.NewRunner(optirand.WithWorkers(2))
	defer local.Close()
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := local.Sweep(cancelled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled local sweep: err = %v, want context.Canceled", err)
	}

	// The remote Runner survives the abandonment.
	res, err := r.Campaign(context.Background(), optirand.CampaignSpec{
		Circuit:  spec.Circuits[0].Circuit,
		Faults:   spec.Circuits[0].Faults,
		Source:   optirand.Weights(optirand.UniformWeights(spec.Circuits[0].Circuit)),
		Patterns: 320,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns != 320 {
		t.Fatalf("post-cancel campaign ran %d patterns, want 320", res.Patterns)
	}
}

// TestRunnerJournalKillAndResume is the crash-resume contract at the
// public API: a sweep killed mid-flight leaves a journal from which a
// *fresh* Runner — a new process, as far as the library can tell —
// completes the sweep byte-identically, replaying the already-done
// prefix instead of recomputing it. Both journal spellings are
// exercised: the killed run names the directory per-spec
// (SweepSpec.Journal), the resuming run inherits it Runner-wide
// (WithJournal).
func TestRunnerJournalKillAndResume(t *testing.T) {
	spec, nTasks := testSweepSpec(t)

	plain := optirand.NewRunner(optirand.WithWorkers(1))
	defer plain.Close()
	ref, err := plain.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation one: journal via the per-spec field, "crash" by
	// cancelling the context after a few deliveries. Every result
	// delivered before the kill is journaled (append-before-deliver).
	dir := t.TempDir()
	spec.Journal = dir
	first := optirand.NewRunner(optirand.WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	killed := 0
	err = first.SweepEach(ctx, spec, func(int, optirand.TaskResult) {
		killed++
		if killed == 3 {
			cancel()
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep: err = %v, want context.Canceled", err)
	}
	if killed < 3 || killed >= nTasks {
		t.Fatalf("kill landed after %d/%d deliveries; the resume would prove nothing", killed, nTasks)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation two: a fresh Runner pointed at the same directory via
	// the Runner-wide option finishes the sweep. The journaled prefix
	// replays (zero Elapsed — no campaign ran), the residue executes,
	// and the merged slice is byte-identical to the uninterrupted run.
	spec.Journal = ""
	second := optirand.NewRunner(optirand.WithWorkers(2), optirand.WithJournal(dir))
	defer second.Close()
	got, err := second.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "resumed", ref, got)
	replays := 0
	for _, r := range got {
		if r.Elapsed == 0 {
			replays++
		}
	}
	if replays < killed {
		t.Fatalf("%d zero-elapsed replays, want >= %d (every pre-kill delivery was journaled)", replays, killed)
	}

	// Incarnation three: the journal now holds the whole grid, so a
	// further rerun executes nothing at all.
	third := optirand.NewRunner(optirand.WithWorkers(3), optirand.WithJournal(dir))
	defer third.Close()
	again, err := third.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "full-replay", ref, again)
	for i, r := range again {
		if r.Elapsed != 0 {
			t.Fatalf("full replay executed slot %d (%s) afresh", i, r.Task.Label)
		}
	}
}
