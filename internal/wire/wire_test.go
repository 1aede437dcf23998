package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"optirand/internal/adapt"
	"optirand/internal/engine"
	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/sim"
)

// goldenCircuitHash pins the canonical JSON bytes of every generated
// benchmark circuit. A mismatch means the wire format changed: either
// bump Version (incompatible change) or revert (accidental drift). The
// values were produced by hashing JSON.Marshal(FromCircuit(b.Build())).
var goldenCircuitHash = map[string]string{
	"s1":    "bf959f1d96b408a699a6d9194f8adfa0f920c701ec7a961e38391c0a56b65cd1",
	"s2":    "f4db8d6013fe82aeb1c06eb405994da0cd776562a8f5c2a4d35bedce2ba60b49",
	"c432":  "c86cd02c277b018ae62df0dae6c3a3126425484347b8759caf25edaa5588f229",
	"c499":  "a4ca458268073217b1f67de25ef0cb23544b33ce589f700524c70f08c8e6424e",
	"c880":  "60f836c7a4cfcaa3fd75787192235f3bd89879332da546be4b1218ad417bc1cc",
	"c1355": "ffe53437f8bfcaca4d609f1ae00e1c2072988b6e1ffbb3ac14c54a3c6884fce3",
	"c1908": "8bc71e5b25fd75b82d5cb51699cdf686c7d39d8d95148ef9a6b446ad71a5a1d6",
	"c2670": "9116a701947977faf921b959b947812deb1506a9c9af533c126c0a646df70d96",
	"c3540": "a6e0ce4854645aa58989ebf0a6d2b923462b90b150dd6d5b0bd24c219b321b99",
	"c5315": "94a407937f5f2c13c7637dda781e202dc242a1b8f7befd80b8104009c9c04dd6",
	"c6288": "f26fc0e147e2047d656d67e0098c02631b1d3fee3402e927d932a3833249020a",
	"c7552": "8141351b6a404fb8b8b2c216ef1f49e9b3d03675dfac977f98b47a6b642c5dfa",
}

// TestCircuitRoundTripAllBenchmarks proves circuit → wire → circuit is
// lossless for all twelve generated benchmark circuits, under both
// codecs, and that the canonical JSON bytes match the goldens.
func TestCircuitRoundTripAllBenchmarks(t *testing.T) {
	bs := gen.Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("expected 12 benchmark circuits, found %d", len(bs))
	}
	for _, b := range bs {
		c := b.Build()
		w := FromCircuit(c)

		canonical, err := JSON.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", b.Name, err)
		}
		sum := sha256.Sum256(canonical)
		if got, want := hex.EncodeToString(sum[:]), goldenCircuitHash[b.Name]; got != want {
			t.Errorf("%s: canonical wire bytes changed: hash %s, golden %s", b.Name, got, want)
		}

		for _, codec := range Codecs {
			data, err := codec.Marshal(w)
			if err != nil {
				t.Fatalf("%s/%s: marshal: %v", b.Name, codec.Name, err)
			}
			var back Circuit
			if err := codec.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s/%s: unmarshal: %v", b.Name, codec.Name, err)
			}
			rc, err := back.Build()
			if err != nil {
				t.Fatalf("%s/%s: rebuild: %v", b.Name, codec.Name, err)
			}
			if rc.Name != c.Name ||
				!reflect.DeepEqual(rc.Gates, c.Gates) ||
				!reflect.DeepEqual(rc.Inputs, c.Inputs) ||
				!reflect.DeepEqual(rc.Outputs, c.Outputs) {
				t.Fatalf("%s/%s: reconstructed circuit differs structurally", b.Name, codec.Name)
			}

			// Marshal must be deterministic: re-encoding the decoded
			// value reproduces the bytes.
			again, err := codec.Marshal(&back)
			if err != nil {
				t.Fatalf("%s/%s: re-marshal: %v", b.Name, codec.Name, err)
			}
			if string(again) != string(data) {
				t.Fatalf("%s/%s: codec is not deterministic", b.Name, codec.Name)
			}
		}
	}
}

// TestCircuitRoundTripBehavior goes beyond structure: a campaign run on
// a reconstructed circuit must be bit-identical to one on the original.
func TestCircuitRoundTripBehavior(t *testing.T) {
	for _, name := range []string{"s1", "c432", "c1908"} {
		b, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("missing benchmark %s", name)
		}
		c := b.Build()
		var back Circuit
		data, _ := JSON.Marshal(FromCircuit(c))
		if err := JSON.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		rc, err := back.Build()
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.New(c).Reps
		rfaults := fault.New(rc).Reps
		if !reflect.DeepEqual(faults, rfaults) {
			t.Fatalf("%s: fault universe differs after round trip", name)
		}
		weights := make([]float64, c.NumInputs())
		for i := range weights {
			weights[i] = 0.5
		}
		cfg := sim.CampaignConfig{Patterns: 512, CurveStep: 128, Workers: 1}
		ref := sim.RunCampaignConfig(c, faults, [][]float64{weights}, 1987, cfg)
		got := sim.RunCampaignConfig(rc, rfaults, [][]float64{weights}, 1987, cfg)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: campaign on reconstructed circuit differs", name)
		}
	}
}

// testTask builds a small but representative wire task.
func testTask(t *testing.T) *Task {
	t.Helper()
	b, ok := gen.ByName("c432")
	if !ok {
		t.Fatal("missing benchmark c432")
	}
	c := b.Build()
	faults := fault.New(c).Reps
	n := c.NumInputs()
	uniform := make([]float64, n)
	skewed := make([]float64, n)
	for i := range uniform {
		uniform[i] = 0.5
		skewed[i] = 0.05 + 0.9*float64(i)/float64(n)
	}
	return &Task{
		V:          Version,
		Label:      "c432/mixture#0",
		Circuit:    FromCircuit(c),
		Faults:     FromFaults(faults),
		WeightSets: [][]float64{uniform, skewed},
		Patterns:   320,
		Seed:       0xdeadbeefcafe,
		CurveStep:  100,
	}
}

// TestTaskRoundTrip proves a task survives both codecs and that the
// rebuilt engine task reproduces the original campaign bit for bit.
func TestTaskRoundTrip(t *testing.T) {
	w := testTask(t)
	ref, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	refRes := ref.Execute()

	for _, codec := range Codecs {
		data, err := codec.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", codec.Name, err)
		}
		var back Task
		if err := codec.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", codec.Name, err)
		}
		task, err := back.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", codec.Name, err)
		}
		if task.Label != ref.Label || task.Patterns != ref.Patterns ||
			task.Seed != ref.Seed || task.CurveStep != ref.CurveStep ||
			!reflect.DeepEqual(task.WeightSets, ref.WeightSets) ||
			!reflect.DeepEqual(task.Faults, ref.Faults) {
			t.Fatalf("%s: rebuilt task differs", codec.Name)
		}
		res := task.Execute()
		if !reflect.DeepEqual(res.Campaign, refRes.Campaign) {
			t.Fatalf("%s: campaign of rebuilt task differs", codec.Name)
		}
	}
}

// TestCampaignResultRoundTrip checks the result type under both codecs.
func TestCampaignResultRoundTrip(t *testing.T) {
	task, err := testTask(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	ref := task.Execute().Campaign
	w := FromCampaign(ref)
	for _, codec := range Codecs {
		data, err := codec.Marshal(w)
		if err != nil {
			t.Fatalf("%s: marshal: %v", codec.Name, err)
		}
		var back CampaignResult
		if err := codec.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", codec.Name, err)
		}
		res, err := back.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", codec.Name, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("%s: campaign result differs after round trip", codec.Name)
		}
	}
}

// TestIdentityHash checks the content-address properties the result
// cache depends on: stable under relabeling, sensitive to every
// identity coordinate.
func TestIdentityHash(t *testing.T) {
	base := testTask(t)
	h := base.IdentityHash()
	if len(h) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(h))
	}

	relabeled := *base
	relabeled.Label = "some/other/name#9"
	if relabeled.IdentityHash() != h {
		t.Error("label must not affect task identity")
	}

	mutations := map[string]func(*Task){
		"seed":     func(w *Task) { w.Seed++ },
		"patterns": func(w *Task) { w.Patterns++ },
		"curve":    func(w *Task) { w.CurveStep++ },
		"weights":  func(w *Task) { w.WeightSets = copyWeightSets(w.WeightSets); w.WeightSets[0][0] = 0.25 },
		"faults":   func(w *Task) { w.Faults = append([]Fault(nil), w.Faults[:len(w.Faults)-1]...) },
		"circuit": func(w *Task) {
			c := *w.Circuit
			c.Name = "renamed"
			w.Circuit = &c
		},
	}
	for name, mutate := range mutations {
		m := *base
		mutate(&m)
		if m.IdentityHash() == h {
			t.Errorf("mutation %q did not change the identity hash", name)
		}
	}

	// The content-addressed spelling is the canonical form IdentityHash
	// is defined over: a by-ref task must hash identically to its
	// inline original, or the daemon's result cache would split on
	// transport spelling.
	ref, circuitBlob, faultsBlob := base.ByRef()
	if ref.IdentityHash() != h {
		t.Error("by-ref task hashes differently from its inline form")
	}
	if circuitBlob == nil || faultsBlob == nil {
		t.Fatal("ByRef returned no blobs for an inline task")
	}
	if HashBytes(circuitBlob) != ref.CircuitRef || HashBytes(faultsBlob) != ref.FaultsRef {
		t.Error("blob content addresses do not match the refs the task carries")
	}
}

// TestTaskByRefResolveRoundTrip proves the content-addressed spelling
// is lossless: ByRef then Resolve reproduces the inline task exactly,
// and the rebuilt engine task runs the identical campaign.
func TestTaskByRefResolveRoundTrip(t *testing.T) {
	base := testTask(t)
	ref, circuitBlob, faultsBlob := base.ByRef()
	if ref.Circuit != nil || ref.Faults != nil {
		t.Fatal("by-ref task still carries inline payloads")
	}

	// A by-ref task must not build before resolution.
	if _, err := ref.Build(); err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("unresolved by-ref task built, err=%v", err)
	}

	blobs := map[string][]byte{ref.CircuitRef: circuitBlob, ref.FaultsRef: faultsBlob}
	resolved := ref
	if err := resolved.Resolve(func(h string) ([]byte, bool) { d, ok := blobs[h]; return d, ok }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resolved.Circuit, base.Circuit) || !reflect.DeepEqual(resolved.Faults, base.Faults) {
		t.Fatal("resolved task differs from the inline original")
	}

	refTask, err := resolved.Build()
	if err != nil {
		t.Fatal(err)
	}
	inlineTask, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refTask.Execute().Campaign, inlineTask.Execute().Campaign) {
		t.Fatal("campaign of resolved by-ref task differs from inline")
	}

	// A missing blob is a typed, retryable error naming the hash.
	missing := ref
	err = missing.Resolve(func(string) ([]byte, bool) { return nil, false })
	var unresolved *UnresolvedRefError
	if !errors.As(err, &unresolved) || unresolved.Hash != ref.CircuitRef {
		t.Fatalf("missing blob: err=%v, want *UnresolvedRefError for the circuit ref", err)
	}

	// Carrying both spellings of one component is ambiguous.
	both := *base
	both.CircuitRef = ref.CircuitRef
	if _, err := both.Build(); err == nil || !strings.Contains(err.Error(), "both") {
		t.Fatalf("task with inline circuit and circuit ref accepted, err=%v", err)
	}
}

// TestVersionNegotiationOldDecoder replays the version-1 decoder's
// logic (decode, then reject any v != 1) against current tasks: a
// version-2 task — by-ref especially — must be rejected outright by
// the version check, before the old decoder could trip over fields it
// does not know. This is the negotiation contract the client's inline
// fallback depends on: an old daemon says "version 2 not supported",
// it never half-interprets a by-ref task as an empty circuit.
func TestVersionNegotiationOldDecoder(t *testing.T) {
	const oldVersion = Version - 1
	// oldDecode is what a version-1 Task.Build did first: version-gate
	// the value before looking at any payload field.
	oldDecode := func(data []byte) error {
		var v struct {
			V int `json:"v"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.V != oldVersion {
			return fmt.Errorf("wire: version %d not supported (want %d)", v.V, oldVersion)
		}
		return nil
	}

	inline := testTask(t)
	byref, _, _ := inline.ByRef()
	for name, task := range map[string]*Task{"inline": inline, "by-ref": &byref} {
		data, err := JSON.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		if err := oldDecode(data); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("%s v%d task accepted by a v%d decoder, err=%v", name, Version, oldVersion, err)
		}
	}
}

// TestVersionRejected proves decoders refuse foreign format versions.
func TestVersionRejected(t *testing.T) {
	w := testTask(t)
	w.V = Version + 1
	if _, err := w.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version task accepted, err=%v", err)
	}
	c := FromCircuit(mustCircuit(t).Build())
	c.V = 0
	if _, err := c.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("zero-version circuit accepted, err=%v", err)
	}
	r := &CampaignResult{V: Version - 1}
	if _, err := r.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-version result accepted, err=%v", err)
	}
}

func mustCircuit(t *testing.T) *gen.Benchmark {
	t.Helper()
	b, ok := gen.ByName("c432")
	if !ok {
		t.Fatal("missing benchmark c432")
	}
	return &b
}

// TestBuildRejectsCorruptWire checks structural validation of hostile
// or truncated wire data.
func TestBuildRejectsCorruptWire(t *testing.T) {
	w := testTask(t)

	badType := *w
	bc := *w.Circuit
	bc.Gates = append([]Gate(nil), w.Circuit.Gates...)
	bc.Gates[0].Type = "FLUX"
	badType.Circuit = &bc
	if _, err := badType.Build(); err == nil {
		t.Error("unknown gate type accepted")
	}

	badFault := *w
	badFault.Faults = append([]Fault(nil), w.Faults...)
	badFault.Faults[0].Gate = len(w.Circuit.Gates) + 7
	if _, err := badFault.Build(); err == nil {
		t.Error("out-of-range fault accepted")
	}

	badStuck := *w
	badStuck.Faults = append([]Fault(nil), w.Faults...)
	badStuck.Faults[0].Stuck = 2
	if _, err := badStuck.Build(); err == nil {
		t.Error("stuck-at-2 fault accepted")
	}

	badWeights := *w
	badWeights.WeightSets = [][]float64{{0.5}}
	if _, err := badWeights.Build(); err == nil {
		t.Error("short weight set accepted")
	}
}

// TestSchedulingKnobsExcludedFromIdentity: the engine's intra-campaign
// scheduling knobs (fault-shard workers, pattern shards, good-machine
// mode) cannot change results, so they must not change a task's
// content address either.
func TestSchedulingKnobsExcludedFromIdentity(t *testing.T) {
	b, _ := gen.ByName("c432")
	c := b.Build()
	faults := fault.New(c).Reps
	weights := make([]float64, c.NumInputs())
	for i := range weights {
		weights[i] = 0.5
	}
	task := &engine.Task{
		Label: "plain", Circuit: c, Faults: faults,
		WeightSets: [][]float64{weights}, Patterns: 128, Seed: 9,
	}
	knobbed := *task
	knobbed.Label = "knobbed"
	knobbed.SimWorkers = 8
	knobbed.SimShards = 4
	knobbed.GoodMachine = sim.GoodMachineShared
	if FromTask(task).IdentityHash() != FromTask(&knobbed).IdentityHash() {
		t.Fatal("scheduling knobs leaked into the task's wire identity")
	}
}

// adaptiveTestTask returns testTask upgraded to an adaptive bandit
// campaign (the two weight sets become the arms).
func adaptiveTestTask(t *testing.T) *engine.Task {
	t.Helper()
	wt := testTask(t)
	et, err := wt.Build()
	if err != nil {
		t.Fatal(err)
	}
	et.Adaptive = &adapt.Config{
		Strategy:       adapt.StrategyBandit,
		BlockPatterns:  128,
		StallRounds:    2,
		TargetCoverage: 0.97,
		Epsilon:        0.1,
	}
	return et
}

// TestAdaptiveTaskRoundTrip: an adaptive task survives both codecs,
// carries VersionAdaptive, and its rebuilt form executes to the same
// campaign — including the round provenance — as the original.
func TestAdaptiveTaskRoundTrip(t *testing.T) {
	et := adaptiveTestTask(t)
	w := FromTask(et)
	if w.V != VersionAdaptive {
		t.Fatalf("adaptive task stamped v%d, want %d", w.V, VersionAdaptive)
	}
	for _, codec := range Codecs {
		data, err := codec.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		var back Task
		if err := codec.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		rebuilt, err := back.Build()
		if err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		if !reflect.DeepEqual(rebuilt.Adaptive, et.Adaptive) {
			t.Fatalf("%s: adaptive config did not survive: %+v vs %+v", codec.Name, rebuilt.Adaptive, et.Adaptive)
		}
		if !reflect.DeepEqual(rebuilt.Execute().Campaign, et.Execute().Campaign) {
			t.Fatalf("%s: rebuilt adaptive task executes differently", codec.Name)
		}
	}
}

// TestAdaptiveResultRoundTrip: an adaptive campaign report — rounds,
// arm pulls, attributed curve — survives the wire exactly.
func TestAdaptiveResultRoundTrip(t *testing.T) {
	res := adaptiveTestTask(t).Execute().Campaign
	if res.Adaptive == nil || len(res.Adaptive.Rounds) == 0 {
		t.Fatalf("want an adaptive result with rounds, got %+v", res.Adaptive)
	}
	w := FromCampaign(res)
	if w.V != VersionAdaptive {
		t.Fatalf("adaptive result stamped v%d, want %d", w.V, VersionAdaptive)
	}
	for _, codec := range Codecs {
		data, err := codec.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		var back CampaignResult
		if err := codec.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		rebuilt, err := back.Build()
		if err != nil {
			t.Fatalf("%s: %v", codec.Name, err)
		}
		if !reflect.DeepEqual(rebuilt, res) {
			t.Fatalf("%s: adaptive result did not round-trip:\n%+v\nvs\n%+v", codec.Name, rebuilt, res)
		}
	}
}

// TestAdaptiveVersionNegotiation proves an old (version-2) daemon
// cleanly rejects adaptive tasks instead of silently running them
// open-loop: the adaptive stamp fails the old decoder's version gate
// before any payload field is interpreted. It also pins the other
// directions: the current decoder rejects an adaptive payload
// smuggled under v2 and a v3 stamp with no adaptive payload.
func TestAdaptiveVersionNegotiation(t *testing.T) {
	w := FromTask(adaptiveTestTask(t))

	// The version-2 decoder's first move, replayed byte for byte:
	// version-gate before payload.
	oldDecode := func(data []byte) error {
		var v struct {
			V int `json:"v"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.V != Version {
			return fmt.Errorf("wire: version %d not supported (want %d)", v.V, Version)
		}
		return nil
	}
	data, err := JSON.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := oldDecode(data); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("old daemon accepted an adaptive task (err=%v) — it would run open-loop", err)
	}

	// Adaptive payload under the open-loop version: malformed, rejected.
	smuggled := *w
	smuggled.V = Version
	if _, err := smuggled.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v2-stamped adaptive task accepted, err=%v", err)
	}

	// VersionAdaptive without the payload that justifies it: rejected.
	bare := testTask(t)
	bare.V = VersionAdaptive
	if _, err := bare.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v3-stamped open-loop task accepted, err=%v", err)
	}

	// Same pairing rule for results.
	res := &CampaignResult{V: Version, Adaptive: &AdaptiveInfo{Strategy: "reopt"}}
	if _, err := res.Build(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("v2-stamped adaptive result accepted, err=%v", err)
	}
}

// TestAdaptiveIdentityHash: the adaptive config is part of task
// identity — an adaptive campaign must never share a cache entry with
// its open-loop twin or with a differently configured loop — while
// open-loop tasks hash exactly as before the field existed.
func TestAdaptiveIdentityHash(t *testing.T) {
	et := adaptiveTestTask(t)
	open := *et
	open.Adaptive = nil
	h := FromTask(et).IdentityHash()
	if h == FromTask(&open).IdentityHash() {
		t.Fatal("adaptive task shares identity with its open-loop twin")
	}
	tweaked := *et
	cfg := *et.Adaptive
	cfg.BlockPatterns = 256
	tweaked.Adaptive = &cfg
	if h == FromTask(&tweaked).IdentityHash() {
		t.Fatal("different adaptive configs share a task identity")
	}
	// The by-ref spelling hashes identically, like every task.
	ref, _, _ := FromTask(et).ByRef()
	if ref.IdentityHash() != h {
		t.Fatal("adaptive by-ref task hashes differently from inline")
	}
}
