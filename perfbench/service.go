package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optirand"
	"optirand/internal/dist"
)

// serviceCircuits are the circuits the service ops campaign on.
var serviceCircuits = []string{"c432", "c880", "c1908", "c2670", "s1"}

const (
	serviceClients  = 2
	serviceWorkers  = 2
	servicePatterns = 512
	// serviceCache is the daemon's reduced result-cache size, small
	// enough that old tasks fall out of it and must come from the
	// journal.
	serviceCache = 64
	// recentWindow bounds how far back (in a client's own distinct
	// tasks) a cache repeat reaches: fewer keys than serviceCache can
	// have been touched since, whatever the other client did.
	recentWindow = 4
	// evictDepth is how many of a client's own distinct tasks must have
	// been touched since an evicted repeat's task: serviceCache of them
	// push it out of the LRU cache on their own.
	evictDepth = serviceCache
	// lruKeep bounds the per-client recency list; older tasks are never
	// repeated.
	lruKeep = 3 * serviceCache
)

// The nominal rate sits below the ~750 ops/s a 2-vCPU host reaches, so
// a 20-second list stays under 10,000 ops: with more, the tail rule
// would move the tail percentile from p99.5 to p99.9, which rests on
// too few samples to repeat between runs.
var serviceWorkload = &workload{
	name:   "service",
	rate:   450,
	minOps: 400,
	setups: 15,
	setup:  setupService,
}

// opClass is the kind of service op, by the tier that should answer it.
type opClass int

const (
	classFresh   opClass = iota // executed, then cached and journaled
	classRecent                 // repeat of a recent task: cache hit
	classEvicted                // repeat of a task the cache evicted: journal replay
	numClasses
)

type svcTask struct {
	circuit   int
	weighting int // 0 uniform, 1 skewed
	seed      uint64
}

type svcOp struct {
	class opClass
	task  int // index into svcPlan.tasks
}

// svcPlan is the seeded op list: one closed-loop op sequence per
// client over a shared task table. Clients never share a task, so
// which tier answers an op does not depend on how the two interleave.
type svcPlan struct {
	tasks   []svcTask
	clients [serviceClients][]svcOp
}

// servicePlan draws each op's class with equal odds. A repeat whose
// class has no candidate yet (early in the list) becomes a fresh task.
func servicePlan(seed uint64, n int) *svcPlan {
	pl := &svcPlan{}
	for k := range pl.clients {
		r := newRand(seed, 10+uint64(k))
		var lru []int // the client's task indices, most recently used first
		ops := make([]svcOp, n/serviceClients)
		for i := range ops {
			class := opClass(r.IntN(int(numClasses)))
			pos := -1
			switch {
			case class == classRecent && len(lru) > 0:
				pos = r.IntN(min(recentWindow, len(lru)))
			case class == classEvicted && len(lru) > evictDepth:
				pos = evictDepth + r.IntN(len(lru)-evictDepth)
			}
			var t int
			if pos < 0 {
				class = classFresh
				t = len(pl.tasks)
				// Circuits and weightings rotate, so every run has the same
				// mix of them and only the campaign seeds differ.
				pl.tasks = append(pl.tasks, svcTask{
					circuit:   t % len(serviceCircuits),
					weighting: t / len(serviceCircuits) % 2,
					seed:      splitmix64(seed ^ uint64(t)),
				})
			} else {
				t = lru[pos]
				lru = slices.Delete(lru, pos, pos+1)
			}
			lru = slices.Insert(lru, 0, t)
			if len(lru) > lruKeep {
				lru = lru[:lruKeep]
			}
			ops[i] = svcOp{class: class, task: t}
		}
		pl.clients[k] = ops
	}
	return pl
}

type svcCircuit struct {
	name    string
	circuit *optirand.Circuit
	faults  []optirand.Fault
	weights [2][]float64
}

type servicePass struct {
	plan     *svcPlan
	circuits []svcCircuit
	dir      string
	srv      *dist.Server
	hs       *http.Server
	served   chan error
	ln       *countingListener
	handler  *timedHandler
	runner   *optirand.Runner
	// digests[k][i] is the result digest client k got for its op i.
	digests [serviceClients][][32]byte
	done    [serviceClients][]bool
	stats   serviceStats
}

func setupService(cfg passConfig) (pass, error) {
	p := &servicePass{plan: servicePlan(cfg.seed, cfg.ops), dir: cfg.dir}
	for _, name := range serviceCircuits {
		b, ok := optirand.BenchmarkByName(name)
		if !ok {
			return nil, fmt.Errorf("service: unknown circuit %s", name)
		}
		c := b.Build()
		skewed := make([]float64, c.NumInputs())
		for i := range skewed {
			skewed[i] = 0.2 + 0.6*float64(i%7)/6
		}
		p.circuits = append(p.circuits, svcCircuit{name: name, circuit: c,
			faults: optirand.CollapsedFaults(c), weights: [2][]float64{optirand.UniformWeights(c), skewed}})
	}
	p.srv = dist.NewServer(dist.ServerOptions{
		Workers:    serviceWorkers,
		CacheSize:  serviceCache,
		JournalDir: cfg.dir,
		Logf:       func(string, ...any) {},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.srv.Close()
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	p.ln = &countingListener{Listener: ln}
	p.handler = &timedHandler{next: p.srv}
	p.hs = &http.Server{Handler: p.handler}
	p.served = make(chan error, 1)
	go func() { p.served <- p.hs.Serve(p.ln) }()
	p.runner = optirand.NewRunner(optirand.WithRemote(ln.Addr().String()), optirand.WithWorkers(serviceWorkers))
	return p, nil
}

func (p *servicePass) spec(t svcTask) optirand.CampaignSpec {
	c := &p.circuits[t.circuit]
	return optirand.CampaignSpec{
		Label:    c.name,
		Circuit:  c.circuit,
		Faults:   c.faults,
		Source:   optirand.Weights(c.weights[t.weighting]),
		Patterns: servicePatterns,
		Seed:     t.seed,
	}
}

// clientResult is one client's share of the run.
type clientResult struct {
	outcome
	err error
}

func (p *servicePass) run(ctx context.Context, tr *tracer) (*outcome, error) {
	p.handler.tr.Store(tr)
	var wg sync.WaitGroup
	var res [serviceClients]clientResult
	start := time.Now()
	for k := range p.plan.clients {
		ops := p.plan.clients[k]
		p.digests[k] = make([][32]byte, len(ops))
		p.done[k] = make([]bool, len(ops))
		wg.Add(1)
		go func(k int, ops []svcOp) {
			defer wg.Done()
			cr := &res[k]
			for i, op := range ops {
				id := k*len(ops) + i
				t := tr.forOp(id)
				t0 := time.Now()
				root := t.begin("op", id, 0)
				s := t.begin("client.rtt", id, root.id)
				cov, err := p.runner.Campaign(ctx, p.spec(p.plan.tasks[op.task]))
				s.end()
				root.end()
				if err != nil {
					cr.failed++
					continue
				}
				cr.add(time.Since(t0), t != nil)
				cr.coverage = append(cr.coverage, cov.Coverage())
				if p.digests[k][i], cr.err = digest(cov); cr.err != nil {
					return
				}
				p.done[k][i] = true
			}
		}(k, ops)
	}
	wg.Wait()
	o := &outcome{wall: time.Since(start)}
	for k := range res {
		if res[k].err != nil {
			return nil, res[k].err
		}
		o.attempted += len(p.plan.clients[k])
		o.failed += res[k].failed
		o.latMs = append(o.latMs, res[k].latMs...)
		o.traced = append(o.traced, res[k].traced...)
		o.coverage = append(o.coverage, res[k].coverage...)
	}
	st, err := p.fetchStats()
	if err != nil {
		return nil, err
	}
	p.stats = st
	return o, nil
}

// serviceStats is the subset of /v1/stats the per-layer metrics use.
type serviceStats struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Journal struct {
		Appends uint64 `json:"appends"`
		Replays uint64 `json:"replays"`
	} `json:"journal"`
	Dispatcher struct {
		Coalesced uint64 `json:"coalesced"`
	} `json:"dispatcher"`
	Overload struct {
		Shed429 uint64 `json:"shed_429"`
		Shed503 uint64 `json:"shed_503"`
	} `json:"overload"`
}

// fetchStats reads /v1/stats from the handler directly, so the read
// adds nothing to the listener's byte counters or the handler timings.
func (p *servicePass) fetchStats() (serviceStats, error) {
	var st serviceStats
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("service: /v1/stats answered %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("service: decode /v1/stats: %w", err)
	}
	return st, nil
}

// check replays every distinct task serially in process and requires
// every op on it, whichever tier answered, to match byte for byte.
func (p *servicePass) check(ctx context.Context) error {
	ref := optirand.NewRunner()
	defer ref.Close()
	want := make(map[int][32]byte)
	for k, ops := range p.plan.clients {
		for i, op := range ops {
			if !p.done[k][i] {
				continue
			}
			dg, ok := want[op.task]
			if !ok {
				res, err := ref.Campaign(ctx, p.spec(p.plan.tasks[op.task]))
				if err != nil {
					return fmt.Errorf("service: replay task %d: %w", op.task, err)
				}
				if dg, err = digest(res); err != nil {
					return err
				}
				want[op.task] = dg
			}
			if p.digests[k][i] != dg {
				return fmt.Errorf("service: client %d op %d (task %d, class %d) differs from its serial replay", k, i, op.task, op.class)
			}
		}
	}
	return nil
}

func (p *servicePass) layers(o *outcome, tr *tracer) map[string]float64 {
	ops := float64(len(o.latMs))
	h := p.handler
	rtt := mean(o.latMs)
	lookups := float64(p.stats.Cache.Hits + p.stats.Cache.Misses)
	return map[string]float64{
		"client.rtt_ms":              rtt,
		"dist.handler_ms.campaign":   h.campaign.mean(),
		"dist.handler_ms.blobs":      h.blobs.mean(),
		"client.overhead_ms":         rtt - ms(h.total())/ops,
		"http.requests_per_op":       float64(h.requests()) / ops,
		"wire.request_bytes_per_op":  float64(p.ln.rx.Load()) / ops,
		"wire.response_bytes_per_op": float64(p.ln.tx.Load()) / ops,
		"dist.cache_hit_pct":         100 * float64(p.stats.Cache.Hits) / lookups,
		"dist.journal_appends":       float64(p.stats.Journal.Appends),
		"dist.journal_replays":       float64(p.stats.Journal.Replays),
		"dist.coalesced":             float64(p.stats.Dispatcher.Coalesced),
		"dist.shed":                  float64(p.stats.Overload.Shed429 + p.stats.Overload.Shed503),
	}
}

func (p *servicePass) close() error {
	errs := []error{p.runner.Close()}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, p.hs.Shutdown(ctx))
	if err := <-p.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	p.srv.Close()
	errs = append(errs, os.RemoveAll(p.dir))
	return errors.Join(errs...)
}

// timedHandler times every request the daemon serves, by route.
type timedHandler struct {
	next     http.Handler
	tr       atomic.Pointer[tracer]
	campaign routeTimer
	blobs    routeTimer
	other    routeTimer
}

type routeTimer struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (r *routeTimer) add(d time.Duration) { r.n.Add(1); r.ns.Add(int64(d)) }

func (r *routeTimer) mean() float64 {
	if n := r.n.Load(); n > 0 {
		return ms(time.Duration(r.ns.Load())) / float64(n)
	}
	return 0
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, req)
	end := time.Now()
	rt, name := &h.other, "dist.handler.other"
	switch {
	case req.URL.Path == "/v1/campaign":
		rt, name = &h.campaign, "dist.handler.campaign"
	case strings.HasPrefix(req.URL.Path, "/v1/blobs/"):
		rt, name = &h.blobs, "dist.handler.blobs"
	}
	rt.add(end.Sub(start))
	h.tr.Load().record(name, start, end)
}

func (h *timedHandler) requests() int64 {
	return h.campaign.n.Load() + h.blobs.n.Load() + h.other.n.Load()
}

func (h *timedHandler) total() time.Duration {
	return time.Duration(h.campaign.ns.Load() + h.blobs.ns.Load() + h.other.ns.Load())
}

// countingListener counts the bytes its connections read (requests)
// and write (responses).
type countingListener struct {
	net.Listener
	rx, tx atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.l.rx.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.l.tx.Add(int64(n))
	return n, err
}
