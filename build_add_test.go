package ssr

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/optimize"
	"repro/internal/workload"
)

// TestAddMatchesBulkBuild checks that the two ways of filling the filter
// tables agree: a build of N sets bulk-loads every bucket, while a build of
// the first N/2 followed by inserting the rest appends them one at a time.
// With the plan pinned to the full build's, and N small enough that both
// size every table to one bucket (so both directories match), every shard
// must return identical candidate lists at identical index page charges,
// and allocate the same number of bucket pages.
func TestAddMatchesBulkBuild(t *testing.T) {
	const n = 300
	sets, err := workload.Generate(workload.Set1Params(n))
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Queries(n, workload.QueryParams{Count: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	copt := core.Options{
		Embed:    embed.Options{K: 64, Bits: 8, Seed: 1},
		Plan:     optimize.Options{Budget: 120, RecallTarget: 0.9},
		DistSeed: 1,
	}
	for _, shards := range []int{1, 4} {
		full, err := engine.Build(sets, engine.Options{Shards: shards, RouterSeed: 1, Core: copt})
		if err != nil {
			t.Fatal(err)
		}
		hopt := copt
		plan := full.Plan()
		hopt.Distribution, hopt.PlanOverride = full.Distribution(), &plan
		half, err := engine.Build(sets[:n/2], engine.Options{Shards: shards, RouterSeed: 1, Core: hopt})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sets[n/2:] {
			if _, err := half.Insert(s); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := full.IndexPages(), half.IndexPages(); a != b {
			t.Errorf("shards=%d: %d bucket pages after the bulk build, %d after build+add", shards, a, b)
		}
		for si := 0; si < shards; si++ {
			fc, hc := full.ShardCore(si), half.ShardCore(si)
			for i, q := range queries {
				var fs, hs core.QueryStats
				want, err := fc.Candidates(sets[q.SID], q.Lo, q.Hi, &fs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := hc.Candidates(sets[q.SID], q.Lo, q.Hi, &hs)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("shards=%d shard %d query %d: candidates differ (%d vs %d)", shards, si, i, len(got), len(want))
				}
				if fs.IndexIO != hs.IndexIO {
					t.Fatalf("shards=%d shard %d query %d: index charges %+v vs %+v", shards, si, i, hs.IndexIO, fs.IndexIO)
				}
			}
		}
	}
}
