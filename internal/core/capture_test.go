package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/embed"
	"repro/internal/optimize"
	"repro/internal/simdist"
	"repro/internal/storage"
	"repro/internal/tuner"
	"repro/internal/workload"
)

func TestTouchedTablesPositive(t *testing.T) {
	ix, _ := buildSmall(t, 300, 40)
	for _, r := range [][2]float64{{0, 0.05}, {0.5, 0.8}, {0.9, 1}, {0, 1}} {
		if got := ix.ProbeTables(r[0], r[1]); got <= 0 {
			t.Errorf("range %v: ProbeTables = %d", r, got)
		}
	}
}

// TestCaptureFractionMatchesIntegrate pins the tabulated capture curve to
// the direct midpoint integral bit for bit, over random ranges, for the
// build histogram and a live tuner sketch, at two histogram resolutions.
// Ranges are drawn twice so both the first fill and warm lookups count.
func TestCaptureFractionMatchesIntegrate(t *testing.T) {
	sets, err := workload.Generate(workload.Set1Params(300))
	if err != nil {
		t.Fatal(err)
	}
	for _, bins := range []int{simdist.DefaultBins, 64} {
		ix, err := Build(sets, Options{
			Embed:    embed.Options{K: 64, Bits: 8, Seed: 42},
			Plan:     optimize.Options{Budget: 60, RecallTarget: 0.9},
			DistBins: bins,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.Distribution().Bins(); got != bins {
			t.Fatalf("build histogram has %d bins, want %d", got, bins)
		}
		tr, err := tuner.New(tuner.Config{Bins: bins, Rand: rand.New(rand.NewSource(3))})
		if err != nil {
			t.Fatal(err)
		}
		for sid := range sets {
			tr.OnInsert(uint32(sid), ix.Signature(storage.SID(sid)))
		}
		sketch := tr.Sketch()
		if sketch.Total() == 0 {
			t.Fatal("tuner sketch is empty")
		}
		rng := rand.New(rand.NewSource(int64(bins)))
		ranges := make([][2]float64, 600)
		for i := range ranges {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			ranges[i] = [2]float64{a, b}
		}
		for pass := 0; pass < 2; pass++ {
			for _, h := range []*simdist.Histogram{nil, sketch} {
				want := ix.Distribution()
				if h != nil {
					want = h
				}
				for _, r := range ranges {
					got, ok := ix.CaptureFraction(h, r[0], r[1])
					if !ok {
						t.Fatalf("bins=%d range %v: no estimate", bins, r)
					}
					elo, ehi := ix.enclose(r[0], r[1])
					direct := want.Integrate(0, 1, func(s float64) float64 {
						return ix.plan.CaptureAt(elo, ehi, s)
					}) / want.Total()
					if math.Float64bits(got) != math.Float64bits(direct) {
						t.Fatalf("bins=%d sketch=%v range %v: table %v, integral %v",
							bins, h != nil, r, got, direct)
					}
				}
			}
		}
	}
}
