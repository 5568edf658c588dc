package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	ssr "repro"
	"repro/internal/set"
	"repro/internal/workload"
)

// collectionSize is the Set1-style collection of the closed-loop
// workloads; churnBase is the near-duplicate base churn-serve serves.
const (
	collectionSize = 5000
	churnBase      = 200
)

// Collections are generated from fixed seeds, like a dataset, and the run's
// seed draws the queries and the traffic. Collection shape moves the query
// cost tail by twice (p99 60 ms against 26-31 ms across seeds on the same
// host), which would drown any change a later PR makes.
const (
	set1Seed        = 101 // workload.Set1Params' own seed
	churnBaseSeed   = 1
	churnInsertSeed = 2
)

// set1 generates the Set1-style (Olympics-log) collection for a seed.
func set1(n int, seed int64) ([]set.Set, error) {
	p := workload.Set1Params(n)
	p.Seed = seed
	return workload.Generate(p)
}

// mirrorBase generates a near-duplicate collection shaped like the drift
// experiment's base: a small page universe visited through ~90% mirrors,
// so most pairwise mass sits at high similarity. Its depth spread is 1.5
// where the drift experiment's is 4: at 4 most sets collapse to the same
// two pages, and on some seeds the optimizer then cuts plans whose table
// fill costs a hundred times more, so set-up and retune time would be
// decided by the seed rather than by the code.
func mirrorBase(n int, seed int64) ([]set.Set, error) {
	return workload.Generate(workload.Params{
		N: n, Topics: 4, GlobalPages: 30, TopicPages: 40,
		MeanDepth: 40, DepthSigma: 1.5, NoisePool: 200, NoiseFrac: 0.05,
		ZipfS: 1.2, MirrorProb: 0.9, MirrorNoise: 0.03, Seed: seed,
	})
}

// names renders a set's elements as the strings the program receives.
func names(s set.Set) []string {
	out := make([]string, 0, s.Len())
	for _, e := range s.Elems() {
		out = append(out, "p"+strconv.FormatUint(e, 10))
	}
	return out
}

func allNames(sets []set.Set) [][]string {
	out := make([][]string, len(sets))
	for i, s := range sets {
		out[i] = names(s)
	}
	return out
}

// closedQueries is the closed-loop query stream: the paper's independent
// uniform bounds, or shardbench's narrow high-similarity ranges.
func closedQueries(sp spec, n int, seed int64) ([]workload.Query, error) {
	p := workload.QueryParams{Count: 50000, Seed: seed}
	if sp.narrow {
		p.FixedWidth, p.MinWidth, p.MaxWidth, p.MinLo = true, 0.05, 0.15, 0.75
	}
	return workload.Queries(n, p)
}

// indexOptions is the build configuration of a workload.
func indexOptions(sp spec) ssr.Options {
	opt := ssr.Options{
		Budget:       budget,
		RecallTarget: recallTarget,
		MinHashes:    minHashes,
		Shards:       sp.shards,
		Seed:         indexSeed,
		Planner:      sp.churn,
	}
	if sp.churn {
		// A serving node builds and retunes on one worker, leaving the
		// other processors to the traffic.
		opt.Workers = 1
	}
	return opt
}

// load builds a fresh collection from the element lists — the
// collection-load half of set-up.
func load(lists [][]string) *ssr.Collection {
	c := ssr.NewCollection()
	for _, l := range lists {
		c.Add(l...)
	}
	return c
}

// setupTimes are the set-up repetitions of one run, in seconds.
type setupTimes struct {
	// cpu is the process CPU time of each repetition: setup_s is their
	// median, so a later change that moves work into set-up shows even
	// when the host is busy.
	cpu []float64
	// wall is each repetition's elapsed time, for the report.
	wall []float64
}

func (s setupTimes) report() map[string][]float64 {
	return map[string][]float64{"cpu": s.cpu, "wall": s.wall}
}

// setupIndex sets the index up setupReps times (collection load plus
// build) and returns the last index with every set-up time. open builds
// one index from a fresh collection; drop releases one that is replaced.
func setupIndex(open func(rep int) (*ssr.Index, error), drop func(*ssr.Index) error) (*ssr.Index, setupTimes, error) {
	var ix *ssr.Index
	var st setupTimes
	for rep := 0; rep < setupReps; rep++ {
		if ix != nil {
			if err := drop(ix); err != nil {
				return nil, st, err
			}
			ix = nil
		}
		runtime.GC()
		start, cpuStart := time.Now(), cpuNow()
		next, err := open(rep)
		if err != nil {
			return nil, st, fmt.Errorf("set-up %d: %w", rep, err)
		}
		st.cpu = append(st.cpu, (cpuNow() - cpuStart).Seconds())
		st.wall = append(st.wall, time.Since(start).Seconds())
		logf("set-up %d: %.2fs wall, %.2fs CPU", rep, st.wall[rep], st.cpu[rep])
		ix = next
	}
	return ix, st, nil
}

// zipfPicker draws popular items: Zipf ranks mapped through a seeded
// permutation, so the hot items are spread over the id space.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) pick() int { return p.perm[p.z.Uint64()] }
