package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/optimize"
	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/workload"
)

// buildRouted builds a core index over n Set1 sets and wraps it in a
// single-shard engine, whose QueryAuto prices the core's capture curve and
// runs its exact scan or filter pipeline.
func buildRouted(t *testing.T, n, budget int) (*core.Index, *engine.Engine, []set.Set) {
	t.Helper()
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(sets, core.Options{
		Embed: embed.Options{K: 64, Bits: 8, Seed: 42},
		Plan:  optimize.Options{Budget: budget, RecallTarget: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix, engine.Wrap(ix), sets
}

// TestCaptureFractionAtLeastAnswer: the predicted candidate count,
// CaptureFraction·(N−1), covers the captured answer plus in-enclosure
// extras, so it is at least the answer-size estimate and at most the
// collection.
func TestCaptureFractionAtLeastAnswer(t *testing.T) {
	ix, e, _ := buildRouted(t, 500, 60)
	for _, r := range [][2]float64{{0.05, 0.2}, {0.3, 0.6}, {0.8, 1}} {
		ans, err := e.EstimateAnswerSize(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		frac, ok := ix.CaptureFraction(nil, r[0], r[1])
		if !ok {
			t.Fatalf("range %v: no capture estimate", r)
		}
		cand := frac * float64(ix.Len()-1)
		if cand < ans {
			t.Errorf("range %v: candidate estimate %g below answer estimate %g", r, cand, ans)
		}
		if cand > float64(ix.Len())*1.01 {
			t.Errorf("range %v: candidate estimate %g above collection size", r, cand)
		}
	}
}

// TestQueryAutoFullRangePicksScan: a full-range query has a huge answer,
// so the Section 6 rule must route it to the scan, with positive costs.
func TestQueryAutoFullRangePicksScan(t *testing.T) {
	_, e, sets := buildRouted(t, 600, 60)
	_, dec, _, err := e.QueryAuto(sets[0], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Costs.FIProbe <= 0 || dec.Costs.DirectScan <= 0 {
		t.Fatalf("degenerate costs: %+v", dec.Costs)
	}
	if dec.Kind != plan.DirectScan {
		t.Errorf("full-range query routed to %v (index %v vs scan %v)", dec.Kind, dec.Costs.FIProbe, dec.Costs.DirectScan)
	}
}

func TestQueryAutoAgreesWithExplicitPaths(t *testing.T) {
	_, e, sets := buildRouted(t, 400, 50)
	for _, r := range [][2]float64{{0.9, 1}, {0, 1}} {
		matches, dec, stats, err := e.QueryAuto(sets[0], r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if stats.Results != len(matches) {
			t.Errorf("route %v: stats.Results %d vs %d matches", dec.Kind, stats.Results, len(matches))
		}
		for _, mt := range matches {
			sim := sets[0].Jaccard(sets[mt.SID])
			if math.Abs(sim-mt.Similarity) > 1e-12 || sim < r[0] || sim > r[1] {
				t.Errorf("route %v: bad match %+v (true %g)", dec.Kind, mt, sim)
			}
		}
		switch dec.Kind {
		case plan.DirectScan:
			// The scan path is exact: it returns the full answer.
			truth := 0
			for _, s := range sets {
				if sim := sets[0].Jaccard(s); sim >= r[0] && sim <= r[1] {
					truth++
				}
			}
			if len(matches) != truth {
				t.Errorf("scan route returned %d of %d", len(matches), truth)
			}
			if stats.FetchIO.Seq() == 0 {
				t.Error("scan route recorded no sequential I/O")
			}
		case plan.FIProbe:
			// The index path is the ordinary filter query.
			plain, _, err := e.Query(sets[0], r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(matches) != fmt.Sprint(plain) {
				t.Errorf("index route diverged from Query")
			}
		default:
			t.Errorf("single-shard route %v", dec.Kind)
		}
	}
}
