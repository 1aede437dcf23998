package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"optirand/internal/fault"
	"optirand/internal/gen"
	"optirand/internal/prng"
)

// The golden gate pins, per generated benchmark circuit, SHA-256
// digests of everything the fault kernel and the campaign layer
// compute on the paper's circuits:
//
//   - faults: fault.New(c).Reps and the Classes partition, in order;
//   - masks: the DetectWords mask of every fault of the full
//     uncollapsed universe over goldenBatches seeded 64-pattern
//     batches, written batch by batch so the digest does not depend on
//     the lane width the batches were grouped at;
//   - uniform / mixture: RunCampaignConfig's FirstDetected and Curve
//     over the collapsed faults, for uniform weights and for a two-set
//     mixture, seed 1987.
//
// Before being pinned, the masks were checked batch by batch against
// the pre-compile interpreter kernel (an independent implementation
// that walked circuit.Gate structs directly) over the same full
// universes, and the campaigns against the serial and sharded
// schedules. The digests carry that proof forward: any change to the
// kernel, the compiler, the fault collapse or the campaign
// bookkeeping that moves a single bit fails here. An intentional
// change must regenerate the digests and say why.
var goldenDigests = map[string]struct{ faults, masks, uniform, mixture string }{
	"s1":    {"302927e06a7602e6f311c5e911eae7cf24ac5a9c8e9a878f20c375f35930ba4f", "3e0684bdd8c089efd7571a4622d34a997f3ed8472301147ead9ed5efd84083c5", "3f6c941f46674eaa54f553294e143f5b95bc12327188e3eea051273c4885b8bc", "92e1a3382d48e343fb52b8e0830a223d84a0318001be22a523f91a677bbe2185"},
	"s2":    {"852a7a7ab1357859704f006525cf344f4d3a61e3a7444a5ede4d92ff15b045ac", "fa6de6cf5281a87ebbf9f20938b1152e3c35a0cbd151bb203a1d6e8277720075", "4bc589de236821f2a03235b63547f3ec40d57d3a09a3fd0d15556fc0f85eadc0", "785f9c5de74d5d5cc79415a9ca3623526f713ee77d1813f2073b187e670e2fb6"},
	"c432":  {"13f3e8a797263e954a1d7891960ddb5f1b8eab39124697115236ad065186c411", "4e24b295530e6c2f5d034a84bcd0d36552a0a4633a7660ad6f38b2492cd61d3a", "4a6902bea2b74606c48340a50af381be362c5ed7ced265dfdae2bb8319050dd2", "80259c69969dd9aeab86e649f581fe6edca83a28c3399ddbeba3e3b4f0b88c91"},
	"c499":  {"7389b5178894e77fd10c1f2f43bcc81cd5fd716ef46ff75eab78bb10bca863f1", "918489081e943c8e6699def9985aa220b86cc9f9d70cd2c22700919184f2f7c2", "9c762925f550e004f6e2b1b9d4751f0d5f3dfd94f3525e67cc39a321ce56eaa9", "31ce763f1d5de4a08a9bb29e8bc44ef1398c0094919b9582f1f95b621957200b"},
	"c880":  {"fd4634fa858820d987ec8e0f93b8293ea9e4f01d95bf3ce35c98c624f956cd43", "6fc88671fbcb564eb0f5bf23406c5fd8009c01bb5e7e9b3c98d9478ef2e0fc49", "32d212c6e39c419b9de03735d791153ad38748a2ed2d7d93a6dc5a81c1549963", "4c37bd831ce72167dc5f99950cf94787036a29476547efff2c15a555bdcaca3a"},
	"c1355": {"568133dfdb8414d4f54378abb9e17644484be881134caf41570104de562dc5d6", "47780b02e46e43e5c8e9a44f335f1e30d501d63c1185e156ce56483c7db6e959", "8be410c0ddb16afef62e07a5c7eba5f2bb9b389a0aa7f2bf4ac29c50185fea8c", "b973cc80fdb027eac3996a8f2495e062d547d517c6e19c332429a5d70176bb5d"},
	"c1908": {"45ad056fb323daba0aa0d8e2060e7e26c9377f795193416beb553a4fb1fb9ef1", "b9312464d7e1ed59bf6036cd6e9e09930a1ccea9d1720aaf4d4d85d0dc8c2291", "71a24a7c11e1c8393c18cec3036fb73945585c24bcae6fb5f876a38cf22c56b7", "b730b7e7242db4041dbbabaa4d3d677a50bb8b046c9b80b17f9cf964b85da240"},
	"c2670": {"41ba4e96cc28c155a5a495d583ea0d477617e3a2e99561b15a91470133d1cbc8", "b9515e39a1fc9d94bc23c420f82aaf38e4e5888b5692e4e29e94ded4672dd64c", "c32c82d8c35341c69e960854a3cbb7ad5711b4293098ae2ec427209b1858a379", "53e13fa3cfbc9ab14f25cd63bbd551cd3f8900c63a54337d5d89f275a8337a8d"},
	"c3540": {"a86c7ead1bd4bc9cd8880c73f805bde6006639a780039b3caaf313a85206db56", "22323efaa156fc728105158c6d4f06235e30f0f7c23a19c7842ee390115301bc", "44e43c1aa24b1e0ea8890d8a34e2c03123d75d723cfc05ac4839e99d30673140", "967f864bf62ed2837122d1833b8c8ed17b15313c4777de139441a6b23c1d270c"},
	"c5315": {"0e7c61cb4f90092bbbd619692c579879d5128fdc9c8197683701d6ec40cf91f6", "5c4f1223be8bf360c0ccd40a9dd7dad89b056371648349d38fae69c5258ea7ef", "fb81ac89c0642f6fed28314bb8c3f69f11a784b446b2c50e3fb28eed5ef9200c", "a7682579f875d7e1f7b23ed3a64d031d9a11bd158486578e0bcd21084d0310ed"},
	"c6288": {"f190d4e734d80c5be24cd17e97264ff04768afd6b35c8025ba78e3231691a71f", "afa0e2bcafde4da9e449933c954a0c428e16d2b3942d6ab39e3d4f5bd10bb07f", "b6fe8a0bf412c7d786493469cd041bd60d12a711df8078d5dae6c8f13475e950", "46f544466b14e041366e74c65d5b4251b2827ddf430d4b6c5628cfa857355724"},
	"c7552": {"66d186f93d4f5f957187d3f51a7ed5505e1741aade49a02ea8d7d229d17a75cd", "6b2c1e5dbb6d8cc97287b9110b3016d0ddd5cd7c2f73079fc8a94a43129fadfa", "6e95633f2a97c55f33dda2bdcf82fc5df1a461d110a7d423c34bd364bfbde3d6", "d1793864ee6e5ab74b2650b6a02c53cf25fd9500d9b0d81b2cd990c6cbee6d7d"},
}

const (
	goldenBatches   = 8 // two lane groups at W=4, one at W=8
	goldenMaskSeed  = 2026
	goldenSeed      = 1987
	goldenPatterns  = 1024
	goldenCurveStep = 128
)

func goldenSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func writeInts(h hash.Hash, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
}

func writeFault(h hash.Hash, f fault.Fault) { writeInts(h, f.Gate, f.Pin, int(f.Stuck)) }

// universeDigest hashes the representatives and the class partition.
func universeDigest(u *fault.Universe) string {
	h := sha256.New()
	writeInts(h, len(u.Reps))
	for _, f := range u.Reps {
		writeFault(h, f)
	}
	writeInts(h, len(u.Classes))
	for _, class := range u.Classes {
		writeInts(h, len(class))
		for _, f := range class {
			writeFault(h, f)
		}
	}
	return goldenSum(h)
}

// maskDigest runs the batches through DetectWords at the simulator's
// width and hashes the masks in batch order, faults in list order
// within each batch.
func maskDigest(s *Simulator, faults []fault.Fault, batches [][]uint64) string {
	fs := NewFaultSimulator(s)
	w := s.Lanes()
	masks := make([]uint64, len(faults)*len(batches))
	var det [8]uint64
	for g := 0; g < len(batches); g += w {
		for l := 0; l < w; l++ {
			s.SetInputsLane(l, batches[g+l])
		}
		s.RunWide()
		for fi, f := range faults {
			fs.DetectWords(f, det[:w])
			for l := 0; l < w; l++ {
				masks[(g+l)*len(faults)+fi] = det[l]
			}
		}
	}
	h := sha256.New()
	var b [8]byte
	for _, m := range masks {
		binary.LittleEndian.PutUint64(b[:], m)
		h.Write(b[:])
	}
	return goldenSum(h)
}

// campaignDigest hashes a campaign report's totals, per-fault first
// detections and curve.
func campaignDigest(res *CampaignResult) string {
	h := sha256.New()
	writeInts(h, res.TotalFaults, res.Detected, res.Patterns, len(res.FirstDetected))
	writeInts(h, res.FirstDetected...)
	writeInts(h, len(res.Curve))
	for _, p := range res.Curve {
		writeInts(h, p.Patterns, p.Detected, int(math.Float64bits(p.Coverage)), p.Round, p.WeightSet)
	}
	return goldenSum(h)
}

// TestGoldenDigests checks every pinned digest on all twelve
// benchmarks, the masks at every lane width. Each digest is its own
// parallel subtest, so the large circuits spread over the CPUs.
func TestGoldenDigests(t *testing.T) {
	for _, b := range gen.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenDigests[b.Name]
			if !ok {
				t.Fatal("no pinned digests")
			}
			c := b.Build()
			u := fault.New(c)
			check := func(t *testing.T, got, want string) {
				t.Helper()
				if got != want {
					t.Errorf("digest drifted: got %q, pinned %q", got, want)
				}
			}

			t.Run("faults", func(t *testing.T) {
				t.Parallel()
				check(t, universeDigest(u), want.faults)
			})

			rng := prng.New(goldenMaskSeed)
			batches := make([][]uint64, goldenBatches)
			for i := range batches {
				batches[i] = make([]uint64, c.NumInputs())
				for j := range batches[i] {
					batches[i][j] = rng.Uint64()
				}
			}
			// The automatic width is always one of the two forced ones,
			// so the automatic run plus the other forced width cover
			// W=auto/4/8.
			other := 8
			if NewSimulator(c).Lanes() == 8 {
				other = 4
			}
			t.Run("masks-auto", func(t *testing.T) {
				t.Parallel()
				check(t, maskDigest(NewSimulator(c), u.All, batches), want.masks)
			})
			t.Run(fmt.Sprintf("masks-w%d", other), func(t *testing.T) {
				t.Parallel()
				check(t, maskDigest(NewSimulatorLanes(c, other), u.All, batches), want.masks)
			})

			uniform := make([]float64, c.NumInputs())
			skewed := make([]float64, c.NumInputs())
			for i := range uniform {
				uniform[i] = 0.5
				skewed[i] = 0.25 + 0.5*float64(i%2)
			}
			cfg := CampaignConfig{Patterns: goldenPatterns, CurveStep: goldenCurveStep, Workers: 1}
			t.Run("uniform", func(t *testing.T) {
				t.Parallel()
				res := RunCampaignConfig(c, u.Reps, [][]float64{uniform}, goldenSeed, cfg)
				check(t, campaignDigest(res), want.uniform)
			})
			t.Run("mixture", func(t *testing.T) {
				t.Parallel()
				res := RunCampaignConfig(c, u.Reps, [][]float64{uniform, skewed}, goldenSeed, cfg)
				check(t, campaignDigest(res), want.mixture)
			})
		})
	}
}
