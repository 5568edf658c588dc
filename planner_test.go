package ssr

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// plannerQueries are element lists drawn from the bookstore vocabulary,
// spanning dense overlap, partial overlap, and disjoint probes.
var plannerQueries = [][]string{
	{"dune", "foundation", "hyperion", "neuromancer"},
	{"dune", "foundation", "hyperion", "snowcrash"},
	{"cookbook", "gardening", "carpentry"},
	{"dune", "cookbook"},
}

var plannerTestRanges = [][2]float64{
	{0.9, 1.0}, {0.75, 0.85}, {0.5, 1.0}, {0.1, 0.9},
}

func requireSamePublicMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].SID != want[i].SID ||
			math.Float64bits(got[i].Similarity) != math.Float64bits(want[i].Similarity) {
			t.Fatalf("%s: match %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestPlannerOption pins the public wiring: Options.Planner enables the
// planner at Build, exact answers stay byte-identical to a planner-off
// build, and Stats surfaces the chosen plan and cache counters.
func TestPlannerOption(t *testing.T) {
	opt := durableBuildOpts()
	base, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Planner = true
	ix, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.PlannerEnabled() {
		t.Fatal("Options.Planner did not enable the planner")
	}
	for _, r := range plannerTestRanges {
		for _, q := range plannerQueries {
			want, _, err := base.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := ix.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSamePublicMatches(t, "cold", got, want)
			if st.PlanChosen == "" || st.PlanChosen == "cached" || st.CacheMisses != 1 {
				t.Fatalf("cold stats: plan=%q misses=%d", st.PlanChosen, st.CacheMisses)
			}
			got, st, err = ix.Query(q, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			requireSamePublicMatches(t, "warm", got, want)
			if st.PlanChosen != "cached" || st.CacheHits != 1 {
				t.Fatalf("warm stats: plan=%q hits=%d", st.PlanChosen, st.CacheHits)
			}
		}
	}
	ix.DisablePlanner()
	if ix.PlannerEnabled() {
		t.Fatal("DisablePlanner left the planner on")
	}
}

// TestPlannerAllowApproximate pins the public approximate gate: the
// screen-only plan runs only under QueryOptions.AllowApproximate, and
// estimates land inside the requested range.
func TestPlannerAllowApproximate(t *testing.T) {
	opt := durableBuildOpts()
	opt.Planner = true
	opt.PlannerPolicy = PlannerPolicy{ForcePlan: "screen-only"}
	ix, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	q, lo, hi := plannerQueries[0], 0.5, 1.0
	_, st, err := ix.QueryWithOptions(q, lo, hi, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanChosen == "screen-only" {
		t.Fatal("screen-only ran without AllowApproximate")
	}
	got, st, err := ix.QueryWithOptions(q, lo, hi, QueryOptions{AllowApproximate: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanChosen != "screen-only" {
		t.Fatalf("plan %q, want screen-only", st.PlanChosen)
	}
	for _, m := range got {
		if m.Similarity < lo || m.Similarity > hi {
			t.Fatalf("screen-only estimate %g outside [%g,%g]", m.Similarity, lo, hi)
		}
	}
}

// TestPlannerMutationInvalidation pins the public invalidation story:
// cached results created before Add/Remove are never served after.
func TestPlannerMutationInvalidation(t *testing.T) {
	opt := durableBuildOpts()
	opt.Planner = true
	ix, err := Build(bookstore(), opt)
	if err != nil {
		t.Fatal(err)
	}
	q, lo, hi := plannerQueries[0], 0.8, 1.0
	if _, _, err := ix.Query(q, lo, hi); err != nil {
		t.Fatal(err)
	}
	before, st, err := ix.Query(q, lo, hi)
	if err != nil || st.CacheHits != 1 {
		t.Fatalf("warm-up: err=%v hits=%d", err, st.CacheHits)
	}
	sid, err := ix.Add(q...)
	if err != nil {
		t.Fatal(err)
	}
	after, st, err := ix.Query(q, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after Add")
	}
	if len(after) != len(before)+1 {
		t.Fatalf("Add not visible through the planner: %d then %d matches", len(before), len(after))
	}
	if err := ix.Remove(sid); err != nil {
		t.Fatal(err)
	}
	final, st, err := ix.Query(q, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatal("stale cached result served after Remove")
	}
	requireSamePublicMatches(t, "after remove", final, before)
}

// TestPlannerDurableMixedGenerationRecovery drives the planner through
// the hardest invalidation scenario: a warm cache, a retune, a crash
// with only one shard checkpointed at the new generation. Entries cached
// before the crash must never surface after recovery — the reopened
// index, planner re-enabled, answers byte-identically to its own
// planner-off baseline, cold-missing then warm-hitting its fresh cache.
func TestPlannerDurableMixedGenerationRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	opt := durableShardedBuildOpts(shards)
	opt.Planner = true
	ix, err := CreateDurable(dir, bookstore(), opt,
		DurableOptions{Sync: SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("CreateDurable: %v", err)
	}
	applyOps(t, ix, workloadOps(25))
	q, lo, hi := plannerQueries[1], 0.5, 1.0
	// Warm the pre-crash cache so stale entries exist to be discarded.
	if _, _, err := ix.Query(q, lo, hi); err != nil {
		t.Fatal(err)
	}
	if _, st, err := ix.Query(q, lo, hi); err != nil || st.CacheHits != 1 {
		t.Fatalf("pre-crash warm-up: err=%v hits=%d", err, st.CacheHits)
	}
	if _, err := ix.inner.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	// Checkpoint ONE shard, then crash: recovery sees mixed generations.
	sh := ix.dur.shards[0]
	sh.mu.Lock()
	err = sh.log.Checkpoint()
	sh.mu.Unlock()
	if err != nil {
		t.Fatalf("checkpointing shard 0: %v", err)
	}
	mixedDir := t.TempDir()
	copyDir(t, dir, mixedDir)

	re, err := OpenDurable(mixedDir, DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable(mixed): %v", err)
	}
	defer re.Close()
	if re.PlannerEnabled() {
		t.Fatal("planner state leaked through recovery; caches must start empty")
	}
	for _, r := range plannerTestRanges {
		want, _, err := re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		re.EnablePlanner(PlannerPolicy{})
		got, st, err := re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.CacheMisses != 1 {
			t.Fatalf("post-recovery cold query hit a cache (hits=%d misses=%d)", st.CacheHits, st.CacheMisses)
		}
		requireSamePublicMatches(t, "post-recovery cold", got, want)
		got, st, err = re.Query(q, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		if st.PlanChosen != "cached" || st.CacheHits != 1 {
			t.Fatalf("post-recovery warm query: plan=%q hits=%d", st.PlanChosen, st.CacheHits)
		}
		requireSamePublicMatches(t, "post-recovery warm", got, want)
		re.DisablePlanner()
	}
}

// TestPlannerConcurrentStress races planned queries (Query, QueryBatch and
// QueryAuto, all priced from the cores' capture tables) against inserts,
// deletes and one Retune on a 4-shard index. The payload size puts the
// shards near the index/scan crossover, so decisions mix fi-probe and
// direct-scan shards. Every goroutine starts on the same signal, so the
// first queries of each plan generation race on the tables' first fill.
// Every query must succeed; at each quiescent point the planner's exact
// answers must be byte-identical to the planner-off pipeline.
func TestPlannerConcurrentStress(t *testing.T) {
	opt := goldenSnapshotOptions()
	opt.Shards = 4
	opt.PayloadBytesPerElement = 5400
	opt.Planner = true
	ix, err := Build(goldenSnapshotCollection(), opt)
	if err != nil {
		t.Fatal(err)
	}
	queries := shardSweepQueries()
	ranges := [][2]float64{{0.9, 1}, {0.5, 0.8}, {0.3, 1}, {0, 1}}

	// quiescent compares planner-on answers with the planner-off pipeline.
	quiescent := func(label string) {
		t.Helper()
		var want [][]Match
		ix.DisablePlanner()
		for _, q := range queries {
			for _, r := range ranges {
				m, _, err := ix.Query(q, r[0], r[1])
				if err != nil {
					t.Fatalf("%s: planner-off query: %v", label, err)
				}
				want = append(want, m)
			}
		}
		ix.EnablePlanner(PlannerPolicy{})
		i := 0
		for _, q := range queries {
			for _, r := range ranges {
				got, _, err := ix.Query(q, r[0], r[1])
				if err != nil {
					t.Fatalf("%s: planned query: %v", label, err)
				}
				requireSamePublicMatches(t, label, got, want[i])
				i++
			}
		}
	}

	// storm runs readers and writers from one start signal; retune, when
	// set, also fires one Retune mid-storm.
	storm := func(phase int64, retune bool) {
		const readers, writers, perReader, perWriter = 6, 2, 30, 20
		start := make(chan struct{})
		errCh := make(chan error, readers+writers+1)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(phase*100 + int64(r)))
				<-start
				// Open with every range at once, so all readers race on
				// each enclosure's first fill.
				for _, rg := range ranges {
					if _, _, _, err := ix.QueryAuto(queries[r%len(queries)], rg[0], rg[1]); err != nil {
						errCh <- fmt.Errorf("phase %d reader %d first fill: %w", phase, r, err)
						return
					}
				}
				for i := 0; i < perReader; i++ {
					q := queries[rng.Intn(len(queries))]
					rg := ranges[rng.Intn(len(ranges))]
					var err error
					switch i % 3 {
					case 0:
						_, _, _, err = ix.QueryAuto(q, rg[0], rg[1])
					case 1:
						res := ix.QueryBatch([]BatchQuery{{Elements: q, Lo: rg[0], Hi: rg[1]}, {Elements: q, Lo: 0, Hi: 1}}, QueryOptions{})
						for _, br := range res {
							if br.Err != nil {
								err = br.Err
							}
						}
					case 2:
						_, _, err = ix.Query(q, rg[0], rg[1])
					}
					if err != nil {
						errCh <- fmt.Errorf("phase %d reader %d query %d: %w", phase, r, i, err)
						return
					}
				}
			}(r)
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(phase*100 + 50 + int64(w)))
				<-start
				for i := 0; i < perWriter; i++ {
					base := rng.Intn(12)
					elems := []string{fmt.Sprintf("stress-%d-%d-%d", phase, w, i)}
					for j := 0; j < 8; j++ {
						elems = append(elems, fmt.Sprintf("e%d", base*6+j))
					}
					sid, err := ix.Add(elems...)
					if err != nil {
						errCh <- fmt.Errorf("phase %d writer %d add %d: %w", phase, w, i, err)
						return
					}
					if i%3 == 1 {
						if err := ix.Remove(sid); err != nil {
							errCh <- fmt.Errorf("phase %d writer %d remove %d: %w", phase, w, sid, err)
							return
						}
					}
				}
			}(w)
		}
		if retune {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rep, err := ix.Retune()
				if err != nil {
					errCh <- fmt.Errorf("phase %d retune: %w", phase, err)
				} else if !rep.Swapped {
					errCh <- fmt.Errorf("phase %d retune swapped no new plan generation", phase)
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	storm(1, false)
	quiescent("after first storm")
	storm(2, true)
	quiescent("after retune storm")
}
