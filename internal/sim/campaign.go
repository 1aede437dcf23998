package sim

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"optirand/internal/circuit"
	"optirand/internal/fault"
	"optirand/internal/prng"
)

// CoveragePoint is one sample of a fault-coverage curve.
type CoveragePoint struct {
	Patterns int
	Detected int
	Coverage float64 // Detected / TotalFaults
	// Round is the adaptive round that generated the batch ending at
	// this sample; 0 for non-adaptive campaigns.
	Round int
	// WeightSet identifies the weight set that generated that batch:
	// the rotation index b%k for mixture campaigns, the round's
	// weight-set id (bandit arm or re-optimization version) for
	// adaptive ones, 0 for single-set campaigns.
	WeightSet int
}

// RoundStat records one block of an adaptive campaign: the weight set
// it ran under and the cumulative state at its boundary.
type RoundStat struct {
	Round     int // 0-based block index
	WeightSet int // weight-set id used for the block (arm index or re-opt version)
	Patterns  int // cumulative patterns applied after the block
	Detected  int // cumulative detections after the block
	Coverage  float64
	// Reoptimized reports that a residual re-optimization ran at this
	// block's boundary and produced the NEXT block's weights.
	Reoptimized bool
}

// AdaptiveInfo records the provenance of a block-adaptive campaign
// (see internal/adapt): one RoundStat per executed block plus the
// loop's termination condition. It is part of the campaign result
// proper — a pure function of (circuit, faults, config, seed), never
// of scheduling — so it travels over the wire and caches with the
// rest of the report.
type AdaptiveInfo struct {
	// Strategy is the re-weighting rule ("reopt" or "bandit").
	Strategy string
	// Rounds holds one entry per executed block, in order.
	Rounds []RoundStat
	// Reopts counts residual re-optimizations that produced new weights.
	Reopts int
	// ArmPulls[a] counts blocks run under bandit arm a (nil for reopt).
	ArmPulls []int
	// Stalled reports termination by stall detection (consecutive
	// zero-detection blocks) before the pattern budget ran out.
	Stalled bool
	// TargetHit reports termination by reaching the target coverage.
	TargetHit bool
}

// CampaignResult reports a random-test fault-simulation campaign.
type CampaignResult struct {
	TotalFaults int
	Detected    int
	Patterns    int
	// FirstDetected[i] is the 1-based pattern count at which fault i of
	// the campaign's fault list was first detected, or 0 if never.
	FirstDetected []int
	// Curve samples coverage after each 64-pattern batch boundary
	// requested via curveStep (always includes the final point).
	Curve []CoveragePoint
	// Adaptive carries round provenance for block-adaptive campaigns;
	// nil for open-loop ones.
	Adaptive *AdaptiveInfo
}

// Coverage returns the final fault coverage in [0,1].
func (r *CampaignResult) Coverage() float64 {
	if r.TotalFaults == 0 {
		return 1
	}
	return float64(r.Detected) / float64(r.TotalFaults)
}

// batchGen fills one word per primary input with the patterns of batch
// batchNo (64 patterns per batch). Implementations must be pure
// functions of batchNo so that independent replays of the stream are
// identical — that property is what makes fault-sharded parallel
// campaigns bit-identical to serial ones.
type batchGen func(batchNo int, dst []uint64)

// loadLaneGroup fills the good machine's lanes with up to W
// consecutive batches of the stream starting at batch *b / pattern
// *applied, advancing both. It returns the number of lanes filled (m)
// and writes each lane's valid-pattern mask into masks (0 for unused
// lanes — their stale values are harmless because every extraction
// masks per lane). Lane l of the group always starts at pattern
// groupBase + l*64: only the campaign's final batch can be partial.
func loadLaneGroup(s *Simulator, gen batchGen, b *int, applied *int, nPatterns int,
	words []uint64, masks *[8]uint64) int {

	w := s.Lanes()
	m := 0
	for ; m < w && *applied < nPatterns; m++ {
		batch := 64
		if rem := nPatterns - *applied; rem < batch {
			batch = rem
		}
		masks[m] = ^uint64(0)
		if batch < 64 {
			masks[m] = (uint64(1) << uint(batch)) - 1
		}
		gen(*b, words)
		s.SetInputsLane(m, words)
		*b++
		*applied += batch
	}
	for l := m; l < w; l++ {
		masks[l] = 0
	}
	return m
}

// firstLaneDetection extracts the earliest detecting pattern index
// from a wide detection group: lanes are consecutive batches, so the
// first non-empty lane (after masking) holds the first detection. 0
// means no detection in the group — exactly the serial per-batch
// bookkeeping, which is what keeps wide campaigns bit-identical.
func firstLaneDetection(det []uint64, masks *[8]uint64, m, groupBase int) int {
	for l := 0; l < m; l++ {
		if d := det[l] & masks[l]; d != 0 {
			return groupBase + l*64 + bits.TrailingZeros64(d) + 1
		}
	}
	return 0
}

// runShard simulates the batch stream against the faults selected by
// shard (indices into faults), filling firstDetected at those indices.
// Detected faults are dropped from further simulation; the shard stops
// early once every one of its faults is detected. runShard takes
// ownership of shard (it is compacted in place as faults drop) and of
// its simulators and generator, so shards run concurrently without
// sharing. The stream runs through the wide kernels, W batches per
// group (dropping happens at group granularity; first detections are
// per pattern either way, so results match the serial batch loop
// exactly).
func runShard(c *circuit.Circuit, faults []fault.Fault, shard []int,
	firstDetected []int, gen batchGen, nPatterns int) {

	s := NewSimulator(c)
	fs := NewFaultSimulator(s)
	w := s.Lanes()
	words := make([]uint64, c.NumInputs())
	var det, masks [8]uint64
	alive := shard

	applied, b := 0, 0
	for applied < nPatterns && len(alive) > 0 {
		groupBase := applied
		m := loadLaneGroup(s, gen, &b, &applied, nPatterns, words, &masks)
		s.RunWide()

		kept := alive[:0]
		for _, fi := range alive {
			fs.DetectWords(faults[fi], det[:w])
			first := firstLaneDetection(det[:w], &masks, m, groupBase)
			if first == 0 {
				kept = append(kept, fi)
				continue
			}
			firstDetected[fi] = first
		}
		alive = kept
	}
}

// assembleResult reconstructs the full campaign report from the
// per-fault first-detection indices by replaying the serial batch
// bookkeeping (fault dropping, early exit once every fault is detected,
// curve sampling). It is a pure function of its arguments, so serial
// and parallel campaigns that agree on firstDetected produce identical
// results.
func assembleResult(total, nPatterns, curveStep int, firstDetected []int) *CampaignResult {
	res := &CampaignResult{
		TotalFaults:   total,
		Patterns:      nPatterns,
		FirstDetected: firstDetected,
	}
	if nPatterns <= 0 || total == 0 {
		res.Curve = append(res.Curve, CoveragePoint{Patterns: 0, Detected: 0, Coverage: res.Coverage()})
		return res
	}

	// Detections per 64-pattern batch.
	nBatches := (nPatterns + 63) / 64
	perBatch := make([]int, nBatches)
	for _, fd := range firstDetected {
		if fd > 0 {
			perBatch[(fd-1)/64]++
		}
	}

	alive := total
	nextSample := curveStep
	applied := 0
	for b := 0; applied < nPatterns && alive > 0; b++ {
		batch := 64
		if rem := nPatterns - applied; rem < batch {
			batch = rem
		}
		res.Detected += perBatch[b]
		alive -= perBatch[b]
		applied += batch
		if curveStep > 0 && (applied >= nextSample || applied == nPatterns) {
			res.Curve = append(res.Curve, CoveragePoint{Patterns: applied, Detected: res.Detected, Coverage: res.Coverage()})
			for nextSample <= applied {
				nextSample += curveStep
			}
		}
	}
	if applied < nPatterns {
		applied = nPatterns // all faults detected early; remaining patterns are free
	}
	last := CoveragePoint{Patterns: applied, Detected: res.Detected, Coverage: res.Coverage()}
	if len(res.Curve) == 0 || res.Curve[len(res.Curve)-1] != last {
		res.Curve = append(res.Curve, last)
	}
	res.Patterns = applied
	return res
}

// attributeMixture stamps each curve point with the weight set that
// generated the batch ending at that sample: batch b of a k-set
// mixture draws from set b%k. Attribution is a pure function of the
// assembled result (a point at P patterns closes batch (P-1)/64), so
// every execution strategy of one campaign agrees on it. Single-set
// campaigns (k <= 1) keep the zero attribution.
func attributeMixture(res *CampaignResult, k int) *CampaignResult {
	if k <= 1 {
		return res
	}
	for i := range res.Curve {
		if p := res.Curve[i].Patterns; p > 0 {
			res.Curve[i].WeightSet = ((p - 1) / 64) % k
		}
	}
	return res
}

// normWorkers resolves a worker-count request: values <= 0 select
// GOMAXPROCS, and the count never exceeds the fault-list length (an
// empty shard would be pure overhead).
func normWorkers(workers, nFaults int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nFaults {
		workers = nFaults
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runCampaign shards the fault list across workers goroutines, each
// replaying the identical batch stream (newGen returns a fresh,
// deterministic generator per worker) with per-shard fault dropping,
// and assembles the merged result. Results are bit-identical for every
// worker count.
func runCampaign(c *circuit.Circuit, faults []fault.Fault, newGen func() batchGen,
	nPatterns, curveStep, workers int) *CampaignResult {

	firstDetected := make([]int, len(faults))
	if nPatterns <= 0 || len(faults) == 0 {
		return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
	}
	workers = normWorkers(workers, len(faults))
	if workers == 1 {
		shard := make([]int, len(faults))
		for i := range shard {
			shard[i] = i
		}
		runShard(c, faults, shard, firstDetected, newGen(), nPatterns)
		return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
	}

	var wg sync.WaitGroup
	n := len(faults)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		shard := make([]int, hi-lo)
		for i := range shard {
			shard[i] = lo + i
		}
		gen := newGen()
		wg.Add(1)
		go func() {
			defer wg.Done()
			runShard(c, faults, shard, firstDetected, gen, nPatterns)
		}()
	}
	wg.Wait()
	return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
}

// GoodMachine selects how fault-sharded parallel campaigns obtain
// their good-machine values. Every mode is bit-identical to the serial
// campaign; the choice is purely a cost trade.
type GoodMachine uint8

const (
	// GoodMachineReplay duplicates the good simulation per worker: each
	// fault-shard worker owns a simulator pair and replays the whole
	// pattern stream. Zero cross-worker state, zero synchronization —
	// the right default when per-fault cone propagation dominates.
	GoodMachineReplay GoodMachine = iota
	// GoodMachineShared runs ONE good simulation per lane group and
	// fans DetectWords out across fault-shard workers against it, with
	// a barrier per group. It buys back the duplicated good-machine
	// work of replay mode — a win on fanout-heavy circuits where the
	// good simulation is not negligible next to the fault cones.
	GoodMachineShared
	// GoodMachineAuto picks between the two by a simple cost model:
	// shared when the good-machine work replay mode would duplicate
	// per batch clears a fixed threshold, replay otherwise.
	GoodMachineAuto
)

// sharedGoodMachineThreshold is the Auto cutover: replay mode is kept
// unless it would duplicate at least this many word-operations of
// good-machine work per batch (gates + fanin edges, summed over the
// extra workers) — enough to dwarf the two goroutine barriers per
// batch that shared mode pays instead.
const sharedGoodMachineThreshold = 1 << 14

// pickShared resolves a GoodMachine mode against the campaign shape.
func pickShared(c *circuit.Circuit, workers int, mode GoodMachine) bool {
	if workers <= 1 {
		return false // shared and replay coincide; take the simpler path
	}
	switch mode {
	case GoodMachineShared:
		return true
	case GoodMachineAuto:
		return (workers-1)*c.NumLines() >= sharedGoodMachineThreshold
	}
	return false
}

// CampaignConfig bundles the scheduling knobs of a campaign. None of
// them can change a result — every combination is bit-identical to
// the serial path — so none of them is part of a task's wire identity.
type CampaignConfig struct {
	// Patterns is the pattern budget.
	Patterns int
	// CurveStep > 0 samples the coverage curve every CurveStep patterns.
	CurveStep int
	// Workers shards the fault list across goroutines (<= 0 selects
	// GOMAXPROCS, 1 is serial). Ignored when PatternShards > 1.
	Workers int
	// PatternShards > 1 shards the pattern stream into contiguous
	// batch ranges instead of sharding the fault list — the right cut
	// for small-fault/large-pattern workloads where fault shards would
	// be too narrow to pay for their duplicated good machines.
	PatternShards int
	// GoodMachine selects the good-machine strategy for fault-sharded
	// campaigns (see the mode constants). The zero value is replay.
	GoodMachine GoodMachine
}

// RunCampaignConfig is the weighted-random campaign entry point: it
// simulates cfg.Patterns patterns against the fault list and reports
// coverage, dropping detected faults from further simulation.
// weightSets[s][i] is the probability that primary input i is 1 under
// set s; one set gives a plain weighted stream, several draw 64-pattern
// batch b from set b%k (the paper's §5.3 mixture for a partitioned
// fault set). seed makes the run reproducible, and cfg selects the
// scheduling: every configuration returns bit-identical results.
func RunCampaignConfig(c *circuit.Circuit, faults []fault.Fault, weightSets [][]float64,
	seed uint64, cfg CampaignConfig) *CampaignResult {

	if len(weightSets) == 0 {
		panic("sim: RunCampaignConfig: no weight sets")
	}
	var newGen func() batchGen
	if len(weightSets) == 1 {
		newGen = weightedGen(weightSets[0], seed)
	} else {
		newGen = mixtureGen(weightSets, seed)
	}
	if cfg.PatternShards > 1 {
		res := runCampaignPatternShards(c, faults, newGen, cfg.Patterns, cfg.CurveStep, cfg.PatternShards)
		return attributeMixture(res, len(weightSets))
	}
	workers := normWorkers(cfg.Workers, len(faults))
	if pickShared(c, workers, cfg.GoodMachine) {
		return attributeMixture(runCampaignShared(c, faults, newGen, cfg.Patterns, cfg.CurveStep, workers), len(weightSets))
	}
	return attributeMixture(runCampaign(c, faults, newGen, cfg.Patterns, cfg.CurveStep, cfg.Workers), len(weightSets))
}

// runCampaignShared is the shared-good-machine campaign: one good
// simulation per lane group, DetectWords fanned out over fault-shard
// workers, a barrier per group. firstDetected entries are written by
// exactly one worker each (shards partition the fault list), and the
// pattern stream is generated once instead of once per worker.
func runCampaignShared(c *circuit.Circuit, faults []fault.Fault, newGen func() batchGen,
	nPatterns, curveStep, workers int) *CampaignResult {

	firstDetected := make([]int, len(faults))
	if nPatterns <= 0 || len(faults) == 0 {
		return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
	}

	good := NewSimulator(c)
	fss := make([]*FaultSimulator, workers)
	shards := make([][]int, workers)
	n := len(faults)
	for w := 0; w < workers; w++ {
		fss[w] = NewFaultSimulator(good)
		lo, hi := w*n/workers, (w+1)*n/workers
		shard := make([]int, hi-lo)
		for i := range shard {
			shard[i] = lo + i
		}
		shards[w] = shard
	}

	// Persistent workers, one per fault shard: the per-group barrier is
	// two channel handoffs (dispatch + WaitGroup), not a goroutine
	// spawn — and wide groups mean one barrier per W batches instead
	// of one per batch, shaving exactly the cost this mode exists to
	// shave.
	type sharedGroup struct {
		groupBase int
		m         int
		masks     [8]uint64
	}
	lanes := good.Lanes()
	var wg sync.WaitGroup
	work := make([]chan sharedGroup, workers)
	for w := range fss {
		work[w] = make(chan sharedGroup)
		go func(w int) {
			var det [8]uint64
			for grp := range work[w] {
				kept := shards[w][:0]
				for _, fi := range shards[w] {
					fss[w].DetectWords(faults[fi], det[:lanes])
					first := firstLaneDetection(det[:lanes], &grp.masks, grp.m, grp.groupBase)
					if first == 0 {
						kept = append(kept, fi)
						continue
					}
					firstDetected[fi] = first
				}
				shards[w] = kept
				wg.Done()
			}
		}(w)
	}
	defer func() {
		for _, ch := range work {
			close(ch)
		}
	}()

	gen := newGen()
	words := make([]uint64, c.NumInputs())
	alive := n
	applied, b := 0, 0
	for applied < nPatterns && alive > 0 {
		grp := sharedGroup{groupBase: applied}
		grp.m = loadLaneGroup(good, gen, &b, &applied, nPatterns, words, &grp.masks)
		good.RunWide()

		// The good machine is frozen for the group; workers only read
		// it while propagating their own fault overlays.
		for w := range fss {
			if len(shards[w]) == 0 {
				continue
			}
			wg.Add(1)
			work[w] <- grp
		}
		wg.Wait()
		alive = 0
		for w := range shards {
			alive += len(shards[w])
		}
	}
	return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
}

// atomicMinDetection lowers *addr to d unless an earlier (smaller,
// non-zero) detection index is already recorded; 0 means "not yet
// detected". Pattern ranges are disjoint, so whatever the store
// interleaving, the surviving value is the global minimum — the index
// the serial campaign would have reported.
func atomicMinDetection(addr *int64, d int64) {
	for {
		cur := atomic.LoadInt64(addr)
		if cur != 0 && cur <= d {
			return
		}
		if atomic.CompareAndSwapInt64(addr, cur, d) {
			return
		}
	}
}

// runPatternRange simulates batches [loBatch, hiBatch) of the stream
// against the full fault list, recording first detections into the
// shared firstDet array (atomic min). Fault dropping works across
// range boundaries through firstDet itself: once an EARLIER range has
// detected a fault, its global first-detection index is settled
// (indices in this range are strictly larger) and the fault is
// dropped here; a detection by a LATER range must not drop it — this
// range could still find an earlier one.
func runPatternRange(c *circuit.Circuit, faults []fault.Fault, gen batchGen,
	loBatch, hiBatch, nPatterns int, firstDet []int64) {

	s := NewSimulator(c)
	fs := NewFaultSimulator(s)
	w := s.Lanes()
	words := make([]uint64, c.NumInputs())
	var det, masks [8]uint64
	// Generators are stateful streams: reach the range's first batch by
	// generating and discarding its predecessors. Pattern generation is
	// cheap next to simulating the range.
	for b := 0; b < loBatch; b++ {
		gen(b, words)
	}

	alive := make([]int, len(faults))
	for i := range alive {
		alive[i] = i
	}
	rangeStart := int64(loBatch * 64)
	for b := loBatch; b < hiBatch && len(alive) > 0; {
		// Fill up to W lanes with the range's next batches. Only the
		// whole campaign's final batch can be partial, and it is the
		// last batch of any range holding it — so lane l always starts
		// at pattern groupBase + l*64.
		groupBase := b * 64
		m := 0
		for ; m < w && b < hiBatch; m++ {
			batch := 64
			if rem := nPatterns - b*64; rem < batch {
				batch = rem // partial final batch of the whole campaign
			}
			masks[m] = ^uint64(0)
			if batch < 64 {
				masks[m] = (uint64(1) << uint(batch)) - 1
			}
			gen(b, words)
			s.SetInputsLane(m, words)
			b++
		}
		for l := m; l < w; l++ {
			masks[l] = 0
		}
		s.RunWide()

		kept := alive[:0]
		for _, fi := range alive {
			if v := atomic.LoadInt64(&firstDet[fi]); v != 0 && v <= rangeStart {
				continue // settled by an earlier range: drop
			}
			fs.DetectWords(faults[fi], det[:w])
			first := firstLaneDetection(det[:w], &masks, m, groupBase)
			if first == 0 {
				kept = append(kept, fi)
				continue
			}
			// Detected in this range: later batches here can only give
			// larger indices, so the fault drops locally too.
			atomicMinDetection(&firstDet[fi], int64(first))
		}
		alive = kept
	}
}

// runCampaignPatternShards shards the pattern stream into contiguous
// batch ranges, one goroutine per range, each simulating the full
// fault list over its range. FirstDetected merges as the per-fault
// minimum across ranges (the atomic handshake in runPatternRange),
// and assembleResult rebuilds the rest — so the report is
// bit-identical to the serial campaign for every shard count.
func runCampaignPatternShards(c *circuit.Circuit, faults []fault.Fault, newGen func() batchGen,
	nPatterns, curveStep, shards int) *CampaignResult {

	firstDetected := make([]int, len(faults))
	if nPatterns <= 0 || len(faults) == 0 {
		return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
	}
	nBatches := (nPatterns + 63) / 64
	if shards > nBatches {
		shards = nBatches // an empty range would be pure overhead
	}
	if shards <= 1 {
		shard := make([]int, len(faults))
		for i := range shard {
			shard[i] = i
		}
		runShard(c, faults, shard, firstDetected, newGen(), nPatterns)
		return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
	}

	firstDet := make([]int64, len(faults))
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		lo, hi := sh*nBatches/shards, (sh+1)*nBatches/shards
		gen := newGen()
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			runPatternRange(c, faults, gen, lo, hi, nPatterns, firstDet)
		}(lo, hi)
	}
	wg.Wait()
	for i, v := range firstDet {
		firstDetected[i] = int(v)
	}
	return assembleResult(len(faults), nPatterns, curveStep, firstDetected)
}

// weightedGen returns a batchGen factory replaying the weighted random
// stream of seed: batch b of every generator returned carries the same
// 64 patterns.
func weightedGen(weights []float64, seed uint64) func() batchGen {
	return func() batchGen {
		rng := prng.New(seed)
		return func(_ int, dst []uint64) { rng.WeightedWords(dst, weights) }
	}
}

// mixtureGen is weightedGen drawing batch b from weightSets[b%k].
func mixtureGen(weightSets [][]float64, seed uint64) func() batchGen {
	return func() batchGen {
		rng := prng.New(seed)
		return func(b int, dst []uint64) { rng.WeightedWords(dst, weightSets[b%len(weightSets)]) }
	}
}

// RunCampaignSource runs a campaign on an external pattern source:
// next is called once per 64-pattern batch and must fill one word per
// primary input. curveStep > 0 requests a coverage sample roughly
// every curveStep patterns (rounded up to 64-pattern batches). It
// serves hardware-model sources (weighted LFSRs) and replayed pattern
// sets. The source is a single stateful stream, so this variant always
// runs serially.
func RunCampaignSource(c *circuit.Circuit, faults []fault.Fault, next func(dst []uint64),
	nPatterns int, curveStep int) *CampaignResult {

	newGen := func() batchGen {
		return func(_ int, dst []uint64) { next(dst) }
	}
	return runCampaign(c, faults, newGen, nPatterns, curveStep, 1)
}

// EstimateDetectProbs estimates the detection probability of each fault
// by Monte-Carlo simulation of `words` 64-pattern batches (64*words
// patterns total) with the given input weights. No fault dropping: every
// fault sees every pattern. This is the sampling cross-check for the
// analytic estimator in internal/testability; it is only meaningful for
// probabilities well above 1/(64*words).
func EstimateDetectProbs(c *circuit.Circuit, faults []fault.Fault, weights []float64,
	words int, seed uint64) []float64 {

	s := NewSimulator(c)
	fs := NewFaultSimulator(s)
	lanes := s.Lanes()
	rng := prng.New(seed)
	in := make([]uint64, c.NumInputs())
	count := make([]int, len(faults))
	var det [8]uint64

	// Wide groups of up to W batches; unused lanes of a final short
	// group hold stale values and are simply not counted.
	for done := 0; done < words; {
		m := lanes
		if rem := words - done; rem < m {
			m = rem
		}
		for l := 0; l < m; l++ {
			rng.WeightedWords(in, weights)
			s.SetInputsLane(l, in)
		}
		s.RunWide()
		for i, f := range faults {
			fs.DetectWords(f, det[:lanes])
			for l := 0; l < m; l++ {
				count[i] += bits.OnesCount64(det[l])
			}
		}
		done += m
	}
	probs := make([]float64, len(faults))
	total := float64(64 * words)
	for i, n := range count {
		probs[i] = float64(n) / total
	}
	return probs
}

// ExactDetectProbs computes detection probabilities by exhaustive
// enumeration of all 2^n input patterns under the product distribution
// given by weights. Only usable for small n (it refuses n > 24). It is
// the ground truth for estimator tests.
func ExactDetectProbs(c *circuit.Circuit, faults []fault.Fault, weights []float64) []float64 {
	n := c.NumInputs()
	if n > 24 {
		panic("sim: ExactDetectProbs: too many inputs for enumeration")
	}
	s := NewSimulator(c)
	fs := NewFaultSimulator(s)
	lanes := s.Lanes()
	probs := make([]float64, len(faults))
	in := make([]uint64, n)
	var det [8]uint64

	// Pattern v is the input assignment whose bit i is input i; batch
	// b holds patterns 64b..64b+63, one per bit, and a lane group holds
	// up to W consecutive batches. Bits past the last pattern are
	// never counted.
	total := 1 << uint(n)
	nBatches := (total + 63) / 64
	for b0 := 0; b0 < nBatches; b0 += lanes {
		m := min(lanes, nBatches-b0)
		for l := 0; l < m; l++ {
			base := (b0 + l) * 64
			for i := range in {
				var w uint64
				for k := 0; k < 64 && base+k < total; k++ {
					if (base+k)>>uint(i)&1 == 1 {
						w |= 1 << uint(k)
					}
				}
				in[i] = w
			}
			s.SetInputsLane(l, in)
		}
		s.RunWide()
		for fi, f := range faults {
			fs.DetectWords(f, det[:lanes])
			for l := 0; l < m; l++ {
				for d := det[l]; d != 0; d &= d - 1 {
					v := (b0+l)*64 + bits.TrailingZeros64(d)
					if v >= total {
						break
					}
					pr := 1.0
					for i := 0; i < n; i++ {
						if v>>uint(i)&1 == 1 {
							pr *= weights[i]
						} else {
							pr *= 1 - weights[i]
						}
					}
					probs[fi] += pr
				}
			}
		}
	}
	return probs
}
