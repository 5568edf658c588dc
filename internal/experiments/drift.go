// The drift experiment: quantify what adaptive re-tuning buys on a
// Figure 6-style workload whose insert stream shifts the similarity
// distribution, and verify the drift tracker fires on its own.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/optimize"
	"repro/internal/set"
	"repro/internal/tuner"
	"repro/internal/workload"
)

// DriftPhase is one measurement point of the drift experiment: a query
// workload evaluated against the engine at one moment of its life.
type DriftPhase struct {
	// Phase names the moment: "before", "drifted", "retuned".
	Phase string
	// Sets is the live collection size at evaluation time.
	Sets int
	// Queries is the number of evaluated queries.
	Queries int
	// Recall and Precision are means over the workload (per-query, with
	// the Definition 9 conventions: 1 on empty truth / empty candidates).
	Recall    float64
	Precision float64
	// MeanCandidates is the average filter-stage candidate count — the
	// fetch cost a mistuned plan inflates.
	MeanCandidates float64
	// PlanGeneration is the generation that answered the workload.
	PlanGeneration uint64
}

// DriftReport is the JSON document of the drift experiment.
type DriftReport struct {
	// BaseSets / FloodSets size the two halves of the collection: the
	// near-duplicate build-time workload and the diverse insert stream
	// that drifts D_S away from it.
	BaseSets  int
	FloodSets int
	// Budget and MinHashes echo the build configuration.
	Budget    int
	MinHashes int
	// Drift is the tracker's max-CDF-distance when the retune decision
	// was taken; Threshold is the firing level it was compared against.
	Drift     float64
	Threshold float64
	// TrackerFired is true when MaybeRetune swapped on its own — the
	// drift gate, not a manual override, triggered the rebuild.
	TrackerFired bool
	// RetuneMillis is the wall time of the swap that ran: MaybeRetune
	// when the tracker fired, otherwise the forced Retune. It covers
	// re-estimating D_S, the Section 5 optimizer and the rebuild.
	RetuneMillis float64
	// Phases holds the three measurement points in order.
	Phases []DriftPhase
}

// driftMirrorParams is the near-duplicate collection the index is built
// over: a small page universe visited through ~90% mirrors, so nearly all
// pairwise mass sits in one high-similarity mode and the equidepth cuts
// concentrate there. The topology is fixed (it defines the build-time
// distribution's shape); only the collection size scales.
func driftMirrorParams(n int, seed int64) workload.Params {
	return workload.Params{
		N: n, Topics: 4, GlobalPages: 30, TopicPages: 40,
		MeanDepth: 40, DepthSigma: 4, NoisePool: 200, NoiseFrac: 0.05,
		ZipfS: 1.2, MirrorProb: 0.9, MirrorNoise: 0.03, Seed: seed,
	}
}

// evalDrift runs one query workload against the engine and aggregates
// recall, precision, and candidate volume. The live collection doubles as
// the ground-truth oracle, exactly as eval.Runner does for core indexes;
// sets must be the engine's live sets in global-sid order.
func evalDrift(e *engine.Engine, sets []set.Set, queries []workload.Query, phase string) (DriftPhase, error) {
	p := DriftPhase{Phase: phase, Sets: len(sets), Queries: len(queries)}
	var recall, precision, candidates float64
	for _, q := range queries {
		qset := sets[q.SID]
		matches, st, err := e.Query(qset, q.Lo, q.Hi)
		if err != nil {
			return DriftPhase{}, fmt.Errorf("drift %s query: %w", phase, err)
		}
		truth := 0
		for _, s := range sets {
			sim := qset.Jaccard(s)
			if sim >= q.Lo && sim <= q.Hi {
				truth++
			}
		}
		// Verification makes every returned match correct, so hits =
		// |matches| and precision is results over fetched candidates.
		r, pr := 1.0, 1.0
		if truth > 0 {
			r = float64(len(matches)) / float64(truth)
		}
		if st.Candidates > 0 {
			pr = float64(len(matches)) / float64(st.Candidates)
		}
		recall += r
		precision += pr
		candidates += float64(st.Candidates)
		p.PlanGeneration = st.PlanGeneration
	}
	n := float64(len(queries))
	p.Recall = recall / n
	p.Precision = precision / n
	p.MeanCandidates = candidates / n
	return p, nil
}

// Drift measures adaptive re-tuning end to end. The index is built over
// a near-duplicate-heavy collection, so its equidepth cuts and table
// allocation concentrate on a high-similarity mode; then a Figure 6-style
// diverse insert stream (Set1) doubles the collection and shifts D_S
// toward low similarity. Queries over the grown collection now fall into
// intervals whose filter points sit far from their ranges, and the stale
// plan loses recall. The drift tracker fires (MaybeRetune — the gated
// path, with a forced Retune fallback so the report is always
// three-phased), the plan is re-derived from the live collection, and the
// same query workload is evaluated once more: the drifted and re-tuned
// phases share one workload, so their rows differ only in the plan that
// served them, and the re-tuned row restores the lost recall.
func Drift(w io.Writer, cfg Config) (*DriftReport, error) {
	cfg = cfg.withDefaults()
	budget := 500
	if cfg.Budget > 0 {
		budget = cfg.Budget
	}
	base, err := workload.Generate(driftMirrorParams(cfg.N, cfg.Seed+11))
	if err != nil {
		return nil, fmt.Errorf("generating base workload: %w", err)
	}
	e, err := engine.Build(base, engine.Options{
		Core: core.Options{
			Embed: embed.Options{K: cfg.MinHashes, Bits: 8, Seed: cfg.Seed},
			Plan: optimize.Options{
				Budget:       budget,
				RecallTarget: cfg.RecallTarget,
			},
			DistSeed:       cfg.Seed,
			PayloadPerElem: 110,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("building drift index: %w", err)
	}
	if err := e.EnableTuning(tuner.Config{
		Rand:         rand.New(rand.NewSource(cfg.Seed + 97)),
		MinMutations: 64,
		MinPairs:     64,
	}); err != nil {
		return nil, fmt.Errorf("enabling tuning: %w", err)
	}

	rep := &DriftReport{
		BaseSets:  len(base),
		Budget:    budget,
		MinHashes: cfg.MinHashes,
		Threshold: tuner.DefaultDriftThreshold,
	}

	// Phase 1: the build-time workload on the build-time plan.
	qsBefore, err := workload.Queries(len(base), workload.QueryParams{Count: cfg.Queries, Seed: cfg.Seed + 31})
	if err != nil {
		return nil, err
	}
	before, err := evalDrift(e, base, qsBefore, "before")
	if err != nil {
		return nil, err
	}
	rep.Phases = append(rep.Phases, before)

	// The drift stream: a diverse Figure 6-style workload, twice the base
	// size, pulling the pairwise mass down and away from the mirror mode.
	flood, err := workload.Generate(workload.Set1Params(2 * cfg.N))
	if err != nil {
		return nil, fmt.Errorf("generating drift stream: %w", err)
	}
	live := make([]set.Set, 0, len(base)+len(flood))
	live = append(live, base...)
	for _, s := range flood {
		if _, err := e.Insert(s); err != nil {
			return nil, fmt.Errorf("inserting drift stream: %w", err)
		}
		live = append(live, s)
	}
	rep.FloodSets = len(flood)

	// Phase 2: the grown collection on the now-stale plan. The same
	// query workload is reused for phase 3.
	qsAfter, err := workload.Queries(len(live), workload.QueryParams{Count: cfg.Queries, Seed: cfg.Seed + 61})
	if err != nil {
		return nil, err
	}
	drifted, err := evalDrift(e, live, qsAfter, "drifted")
	if err != nil {
		return nil, err
	}
	rep.Phases = append(rep.Phases, drifted)

	// The retune: the gated path first, so the report also certifies the
	// tracker's decision rule end to end.
	start := time.Now()
	res, err := e.MaybeRetune()
	if err != nil {
		return nil, fmt.Errorf("maybe-retune: %w", err)
	}
	rep.TrackerFired = res.Swapped
	rep.Drift = res.Drift
	if !res.Swapped {
		start = time.Now()
		if res, err = e.Retune(); err != nil {
			return nil, fmt.Errorf("forced retune: %w", err)
		}
	}
	rep.RetuneMillis = float64(time.Since(start).Microseconds()) / 1000

	// Phase 3: the identical workload on the re-tuned plan.
	retuned, err := evalDrift(e, live, qsAfter, "retuned")
	if err != nil {
		return nil, err
	}
	rep.Phases = append(rep.Phases, retuned)

	fmt.Fprintf(w, "Drift (budget %d tables, k=%d, %d-set mirror base + %d-set diverse stream, %d queries/phase)\n",
		budget, cfg.MinHashes, rep.BaseSets, rep.FloodSets, cfg.Queries)
	fmt.Fprintf(w, "tracker: drift %.3f vs threshold %.3f, fired=%v (generation %d, retune %.1f ms)\n",
		rep.Drift, rep.Threshold, rep.TrackerFired, res.Generation, rep.RetuneMillis)
	fmt.Fprintf(w, "%-9s %8s %8s %8s %12s %4s\n", "phase", "sets", "recall", "prec", "candidates", "gen")
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "%-9s %8d %8.3f %8.3f %12.1f %4d\n",
			p.Phase, p.Sets, p.Recall, p.Precision, p.MeanCandidates, p.PlanGeneration)
	}
	return rep, nil
}
