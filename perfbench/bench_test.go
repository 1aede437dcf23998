package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func ascending(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{5, 50, 2},    // too few samples for any step: the median
		{20, 50, 10},  // p75 would leave only 5 beyond
		{99, 75, 24},  // p90 would leave 9 beyond
		{100, 90, 10}, // exactly ten beyond p90
		{200, 95, 10}, // exactly ten beyond p95
		{10000, 99.9, 10},
		{9999, 99.5, 49}, // p99.9 would leave 9 beyond
	}
	for _, c := range cases {
		s := ascending(c.n)
		p, v, beyond := tail(s)
		if p != c.p || beyond != c.beyond {
			t.Errorf("n=%d: tail = p%g with %d beyond, want p%g with %d", c.n, p, beyond, c.p, c.beyond)
		}
		if want := float64(c.n - beyond); v != want {
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 55},
	}
	st := tr.selfTimes()
	for name, want := range map[string]int64{"op": 50, "a": 30, "b": 25, "c": 5} {
		if got := int64(st[name].Self); got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestOpListsRepeatForEqualSeeds(t *testing.T) {
	if !reflect.DeepEqual(paperOps(7, 300), paperOps(7, 300)) {
		t.Error("paper op lists differ for equal seeds")
	}
	if reflect.DeepEqual(paperOps(7, 300), paperOps(8, 300)) {
		t.Error("paper op lists ignore the seed")
	}
	if !reflect.DeepEqual(sweepOps(7, 50), sweepOps(7, 50)) {
		t.Error("sweep op lists differ for equal seeds")
	}
	if reflect.DeepEqual(sweepOps(7, 50), sweepOps(8, 50)) {
		t.Error("sweep op lists ignore the seed")
	}
	if !reflect.DeepEqual(servicePlan(7, 4000), servicePlan(7, 4000)) {
		t.Error("service plans differ for equal seeds")
	}
	if reflect.DeepEqual(servicePlan(7, 4000), servicePlan(8, 4000)) {
		t.Error("service plans ignore the seed")
	}
}

func TestPaperSharesAreEqual(t *testing.T) {
	ops := paperOps(3, 301)
	if len(ops) != 300 {
		t.Fatalf("len = %d, want 300 (a multiple of the circuit count)", len(ops))
	}
	var count [3]int
	for _, c := range ops {
		count[c]++
	}
	if count != [3]int{100, 100, 100} {
		t.Errorf("circuit shares %v, want 100 each", count)
	}
}

// classCounts tallies a service plan's ops by class.
func classCounts(pl *svcPlan) [numClasses]int {
	var c [numClasses]int
	for _, ops := range pl.clients {
		for _, op := range ops {
			c[op.class]++
		}
	}
	return c
}

// TestServiceMix checks the op-class shares and that, fed to an LRU
// cache of the daemon's size in round-robin client order, every recent
// repeat hits and every evicted repeat and fresh task misses.
func TestServiceMix(t *testing.T) {
	pl := servicePlan(11, 6000)
	counts := classCounts(pl)
	for c, n := range counts {
		if share := float64(n) / 6000; share < 0.28 || share > 0.40 {
			t.Errorf("class %d share %.3f, want about a third", c, share)
		}
	}
	seeds := make(map[svcTask]bool)
	for _, task := range pl.tasks {
		if seeds[task] {
			t.Fatalf("task %+v drawn twice", task)
		}
		seeds[task] = true
	}
	var lru []int // task indices, most recent first
	for i := range pl.clients[0] {
		for k := range pl.clients {
			op := pl.clients[k][i]
			pos := slices.Index(lru, op.task)
			hit := pos >= 0
			if hit != (op.class == classRecent) {
				t.Fatalf("client %d op %d: class %d but LRU hit=%v", k, i, op.class, hit)
			}
			if hit {
				lru = slices.Delete(lru, pos, pos+1)
			}
			lru = slices.Insert(lru, 0, op.task)
			if len(lru) > serviceCache {
				lru = lru[:serviceCache]
			}
		}
	}
}

// TestServiceTiersAnswerAsPlanned runs a short service pass and checks
// the daemon's own counters: fresh ops were journaled, recent repeats
// hit the cache and evicted repeats were replayed from the journal.
func TestServiceTiersAnswerAsPlanned(t *testing.T) {
	p, err := setupService(passConfig{seed: 5, ops: 600, dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	o, err := p.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d ops failed", o.failed)
	}
	if err := p.check(context.Background()); err != nil {
		t.Fatal(err)
	}
	sp := p.(*servicePass)
	counts := classCounts(sp.plan)
	st := sp.stats
	if st.Journal.Appends != uint64(counts[classFresh]) || st.Cache.Hits != uint64(counts[classRecent]) ||
		st.Journal.Replays != uint64(counts[classEvicted]) {
		t.Errorf("appends/hits/replays = %d/%d/%d, want %v", st.Journal.Appends, st.Cache.Hits, st.Journal.Replays, counts)
	}
}

// TestPrintedMetricsAreDeclared runs every workload briefly, traced,
// and checks the metric names it reports, and the lists the output is
// built from, against BENCHMARK.json.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var a, b []string
		for _, d := range declared {
			a = append(a, d.Name+" "+d.Unit)
		}
		for _, d := range defs {
			b = append(b, d.name+" "+d.unit)
		}
		sort.Strings(a)
		sort.Strings(b)
		if !slices.Equal(a, b) {
			t.Errorf("%s metrics: BENCHMARK.json has %v, the benchmark prints %v", kind, a, b)
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}

	declared := make(map[string]bool)
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, w := range workloads {
		p, err := w.setup(passConfig{seed: 1, ops: w.minOps, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		o, err := p.run(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		for name := range p.layers(o, tr) {
			if !declared[name] {
				t.Errorf("%s reports undeclared metric %s", w.name, name)
			}
			delete(declared, name)
		}
		if err := p.close(); err != nil {
			t.Fatal(err)
		}
		delete(declared, "trace."+w.name+".overhead_pct")
		delete(declared, "trace."+w.name+".layer_pct")
	}
	for name := range declared {
		t.Errorf("declared metric %s is reported by no workload", name)
	}
}
