package optimize

import (
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/embed"
	"repro/internal/filter"
	"repro/internal/lsh"
	"repro/internal/minhash"
	"repro/internal/simdist"
	"repro/internal/workload"
)

var (
	fig6Once sync.Once
	fig6H    *simdist.Histogram
	fig6Err  error
)

// fig6Hist is the similarity distribution the Figure 6 benchmark fixture
// plans from: a 2000-set Set1 collection signed with k = 64 min-hashes,
// D_S estimated from 200,000 signature pairs (core.Build's default sample
// at this size, seeded as core seeds it with DistSeed 0).
func fig6Hist(tb testing.TB) *simdist.Histogram {
	tb.Helper()
	fig6Once.Do(func() {
		sets, err := workload.Generate(workload.Set1Params(2000))
		if err != nil {
			fig6Err = err
			return
		}
		emb, err := embed.New(embed.Options{K: 64, Bits: 8, Seed: 1})
		if err != nil {
			fig6Err = err
			return
		}
		sigs := make([]minhash.Signature, len(sets))
		for i, s := range sets {
			sigs[i] = emb.Sign(s)
		}
		fig6H, fig6Err = simdist.SampleSignaturePairsN(sigs, 200000, 0, 7, 1)
	})
	if fig6Err != nil {
		tb.Fatal(fig6Err)
	}
	return fig6H
}

// planDigest is the hex sha256 of the gob encoding of p — the encoding
// snapshots carry plans in.
func planDigest(tb testing.TB, p Plan) string {
	tb.Helper()
	h := sha256.New()
	if err := gob.NewEncoder(h).Encode(p); err != nil {
		tb.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildPlanGolden pins every plan the optimizer produces, bit for bit,
// across objectives, placements, allocators, capture models (k = 0 is the
// mean-Hamming approximation) and the fixed-interval entry point. The
// digests were recorded before the capture model was tabulated; a change
// to the model's arithmetic order, or to which inputs it reads, moves them.
func TestBuildPlanGolden(t *testing.T) {
	type tc struct {
		name  string
		hist  func(testing.TB) *simdist.Histogram
		fixed int // > 0 runs BuildPlanFixedIntervals with this many cuts
		opt   Options
	}
	web := func(testing.TB) *simdist.Histogram { return webLikeHist() }
	cases := []tc{
		{name: "fig6/k64", hist: fig6Hist, opt: Options{Budget: 500, RecallTarget: 0.75, SignatureK: 64}},
		{name: "fig6/k64/worst", hist: fig6Hist, opt: Options{Budget: 500, RecallTarget: 0.75, SignatureK: 64, Objective: WorstCaseRecall}},
		{name: "fig6/k64/fixed3", hist: fig6Hist, fixed: 3, opt: Options{Budget: 500, RecallTarget: 0.75, SignatureK: 64}},
		{name: "web/k64/fixed3", hist: web, fixed: 3, opt: Options{Budget: 100, RecallTarget: 0.8, SignatureK: 64}},
		{name: "web/k0/fixed3", hist: web, fixed: 3, opt: Options{Budget: 100, RecallTarget: 0.8}},
	}
	objectives := []string{AverageRecall: "avg", WorstCaseRecall: "worst"}
	placements := []string{Equidepth: "equidepth", Uniform: "uniform"}
	allocations := []string{Greedy: "greedy", UniformTables: "uniformtables"}
	for _, k := range []int{0, 64} {
		for obj, objName := range objectives {
			for pl, plName := range placements {
				for al, alName := range allocations {
					cases = append(cases, tc{
						name: fmt.Sprintf("web/k%d/%s/%s/%s", k, objName, plName, alName),
						hist: web,
						opt: Options{Budget: 100, RecallTarget: 0.8, MaxFIs: 8, SignatureK: k,
							Objective: RecallObjective(obj), Placement: Placement(pl), Allocation: Allocation(al)},
					})
				}
			}
		}
	}
	golden := map[string]string{
		"fig6/k64":                              "51bbcb0eb33afb30be6d68f55a9d25ad23c5931c98445f2a4593f43025634710",
		"fig6/k64/worst":                        "ebc7b09cf561347b1d477f146654943599174d32821fbc8ba8e3d4bfae4aa899",
		"fig6/k64/fixed3":                       "51bbcb0eb33afb30be6d68f55a9d25ad23c5931c98445f2a4593f43025634710",
		"web/k64/fixed3":                        "65233b45b022fe57f38f83b687bf65ee7def333cc8e99daa4a77ca3f91bad451",
		"web/k0/fixed3":                         "9ba779ed19cdf5af1feebec7c03be824320795bfee22fd4c6f6bd335a6b6fb40",
		"web/k0/avg/equidepth/greedy":           "2ceb524ed25d1e90045c0aca92e6c42f22774312d6d7a9b5969b0d68654fac0d",
		"web/k0/avg/equidepth/uniformtables":    "042195fa242bcfe7c207c54f2efbf1f1df44bc96f754c496c7c46e380406446d",
		"web/k0/avg/uniform/greedy":             "7b3fa889196aa321e6af2c32be7fd9a4ed906bf69828b4b75e4a6abda990d96f",
		"web/k0/avg/uniform/uniformtables":      "a130404b330456132384d82025d72f02d9223402ff94dc10939c8f4515a481ea",
		"web/k0/worst/equidepth/greedy":         "44015c6d1aed57deb5950bc27cdbbc37a103e06b839f8f36e93fe089b3e4ecd7",
		"web/k0/worst/equidepth/uniformtables":  "042195fa242bcfe7c207c54f2efbf1f1df44bc96f754c496c7c46e380406446d",
		"web/k0/worst/uniform/greedy":           "e365a4081d971abfd4f0545b428aa737e32f2f887a6b743cae65855d6ee294e9",
		"web/k0/worst/uniform/uniformtables":    "afb444966dcd6a387dd030108c6d2556dc5673885b75a83bf6393370b9e8f9a4",
		"web/k64/avg/equidepth/greedy":          "78db53fdec8bce65b0b04d9be9da4ac4d93232a859263587b860348d1073517a",
		"web/k64/avg/equidepth/uniformtables":   "988f7f49fce75af1162a3572fac08f1da70f15bb878bdb48b59481feeb64167f",
		"web/k64/avg/uniform/greedy":            "39702f4d4848dd4460aded6278bd90bf144beb573f66292f24f0febb64148ad3",
		"web/k64/avg/uniform/uniformtables":     "4c873526bf485f0940f91bf7635564c300b4d80f6977609915778e28fa7db570",
		"web/k64/worst/equidepth/greedy":        "78db53fdec8bce65b0b04d9be9da4ac4d93232a859263587b860348d1073517a",
		"web/k64/worst/equidepth/uniformtables": "988f7f49fce75af1162a3572fac08f1da70f15bb878bdb48b59481feeb64167f",
		"web/k64/worst/uniform/greedy":          "14aa089856ee8e4f33209c32c85fb302c4d9ef5b6fd2b1d3aac8e461835aa218",
		"web/k64/worst/uniform/uniformtables":   "4b267eecff859ef1e75171e9bf72190e44cc7b7c45f42955ec496af214c0812e",
	}
	if len(cases) != len(golden) {
		t.Fatalf("%d cases for %d golden digests", len(cases), len(golden))
	}
	for _, c := range cases {
		var p Plan
		var err error
		if c.fixed > 0 {
			p, err = BuildPlanFixedIntervals(c.hist(t), c.fixed, c.opt)
		} else {
			p, err = BuildPlan(c.hist(t), c.opt)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := planDigest(t, p)
		if want, ok := golden[c.name]; !ok || got != want {
			t.Errorf("%s: plan digest %s, want %s", c.name, got, want)
		}
	}
}

// referenceCapture is the capture model in its original, untabulated form:
// the Binomial weights come from the log-space recurrence interleaved with
// p_{r,l} evaluation at each agreement count, summed in ascending order and
// divided by the weight sum at the end. It is an independent oracle for
// the bit-identity test, so it does not share binomWeights.average.
func referenceCapture(kind filter.Kind, sigma float64, l, k int, s float64) float64 {
	if l < 1 {
		return 0
	}
	r := solveR(kind, sigma, l)
	prob := func(sH float64) float64 {
		if kind == filter.Dissimilar {
			sH = 1 - sH
		}
		return lsh.CollisionProb(sH, r, l)
	}
	if k <= 0 {
		return prob(embed.HammingFromJaccard(s))
	}
	f := func(a int) float64 { return prob((1 + float64(a)/float64(k)) / 2) }
	if s <= 0 {
		return f(0)
	}
	if s >= 1 {
		return f(k)
	}
	mean := float64(k) * s
	dev := 6*math.Sqrt(float64(k)*s*(1-s)) + 1
	lo := int(mean - dev)
	if lo < 0 {
		lo = 0
	}
	hi := int(mean + dev)
	if hi > k {
		hi = k
	}
	lp := logBinomPmf(k, lo, s)
	ratio := s / (1 - s)
	sum, wsum := 0.0, 0.0
	for a := lo; a <= hi; a++ {
		w := math.Exp(lp)
		sum += w * f(a)
		wsum += w
		lp += math.Log(float64(k-a)/float64(a+1)) + math.Log(ratio)
	}
	if wsum == 0 {
		return f(int(mean))
	}
	return sum / wsum
}

// denseHist is webLikeHist with mass in every bin, so integrals sample
// every bin midpoint.
func denseHist() *simdist.Histogram {
	bins := webLikeHist().RawBins()
	for i := range bins {
		bins[i]++
	}
	return simdist.FromBins(bins)
}

// TestModelCaptureBitIdentical pins the tabulated capture model to the
// untabulated one bit for bit: at s = 0, s = 1, every bin midpoint and the
// clipped midpoints of the bin split at σ, for both kinds, several σ, l
// from 1 to 600 and several k, through the Model, through the free
// Capture, and through whole Error integrals.
func TestModelCaptureBitIdentical(t *testing.T) {
	hist := denseHist()
	ls := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 600}
	for _, k := range []int{16, 64, 100} {
		m := NewModelK(hist, k)
		for _, kind := range []filter.Kind{filter.Similar, filter.Dissimilar} {
			for _, sigma := range []float64{0.001, 0.3, 0.5, 0.97} {
				// Every point Error's two integrals sample, plus both ends.
				pts := []point{m.point(0, false, 0), m.point(hist.Bins()-1, false, 1)}
				record := func(bin int, whole bool, s float64) float64 {
					pts = append(pts, m.point(bin, whole, s))
					return 0
				}
				hist.IntegrateBins(0, sigma, record)
				hist.IntegrateBins(sigma, 1, record)
				for _, l := range ls {
					c := m.curve(kind, sigma, l)
					for _, pt := range pts {
						want := referenceCapture(kind, sigma, l, k, pt.s)
						if got := m.capture(c, pt); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("k=%d kind=%v σ=%g l=%d s=%v: model %v, reference %v", k, kind, sigma, l, pt.s, got, want)
						}
						if got := Capture(kind, sigma, l, k, pt.s); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("k=%d kind=%v σ=%g l=%d s=%v: Capture %v, reference %v", k, kind, sigma, l, pt.s, got, want)
						}
					}
					hit := func(s float64) float64 { return referenceCapture(kind, sigma, l, k, s) }
					miss := func(s float64) float64 { return 1 - referenceCapture(kind, sigma, l, k, s) }
					var want float64
					if kind == filter.Dissimilar {
						want = hist.Integrate(sigma, 1, hit) + hist.Integrate(0, sigma, miss)
					} else {
						want = hist.Integrate(0, sigma, hit) + hist.Integrate(sigma, 1, miss)
					}
					if got := m.Error(kind, sigma, l); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("k=%d kind=%v σ=%g l=%d: Error %v, reference %v", k, kind, sigma, l, got, want)
					}
				}
			}
		}
	}
}

// fig6CollisionEvals is the number of p_{r,l} evaluations BuildPlan makes
// on the Figure 6 fixture. The count is deterministic, so it is a
// regression gate free of timing noise: raise it only with a reason.
const fig6CollisionEvals = 114010

// TestBuildPlanCollisionWork gates the optimizer's transcendental work on
// the Figure 6 fixture: the count of lsh.CollisionProb evaluations repeats
// exactly across runs, stays within one evaluation per agreement count per
// distinct (kind, r, l), and does not exceed the committed baseline.
func TestBuildPlanCollisionWork(t *testing.T) {
	const k = 64
	opt := Options{Budget: 500, RecallTarget: 0.75, SignatureK: k}
	run := func() (*Model, Plan) {
		m := NewModelK(fig6Hist(t), k)
		p, err := m.buildPlan(opt)
		if err != nil {
			t.Fatal(err)
		}
		return m, p
	}
	m1, p1 := run()
	m2, p2 := run()
	if m1.collisionEvals != m2.collisionEvals {
		t.Fatalf("collision evaluations differ across runs: %d vs %d", m1.collisionEvals, m2.collisionEvals)
	}
	if planDigest(t, p1) != planDigest(t, p2) {
		t.Fatal("plans differ across runs")
	}
	if bound := (k + 1) * len(m1.probs); m1.collisionEvals > bound {
		t.Errorf("%d collision evaluations, above (k+1) × %d distinct (kind, r, l) = %d", m1.collisionEvals, len(m1.probs), bound)
	}
	if m1.collisionEvals > fig6CollisionEvals {
		t.Errorf("%d collision evaluations, above the committed baseline %d", m1.collisionEvals, fig6CollisionEvals)
	}
	t.Logf("%d collision evaluations over %d distinct (kind, r, l)", m1.collisionEvals, len(m1.probs))
}

// BenchmarkBuildPlan times one run of the Figure 4 construction on the
// Figure 6 fixture distribution (2000 Set1 sets, k = 64, 500 tables).
func BenchmarkBuildPlan(b *testing.B) {
	hist := fig6Hist(b)
	opt := Options{Budget: 500, RecallTarget: 0.75, SignatureK: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := BuildPlan(hist, opt)
		if err != nil {
			b.Fatal(err)
		}
		planSink = p
	}
}

// planSink keeps BenchmarkBuildPlan's result live.
var planSink Plan
