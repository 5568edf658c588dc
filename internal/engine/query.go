// Scatter-gather query processing.
//
// Every query scatters across all shards and gathers with the core's total
// order (similarity descending, global sid ascending as the tie-break).
// Because every shard was planned from the same global distribution, a
// set's candidacy is independent of which shard holds it, so the gathered
// result equals what a monolithic index would return — for any shard
// count. Each shard query runs under that shard's core read lock only;
// the scatter never holds two shard locks at once, so queries on one
// shard overlap writes on another.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/minhash"
	"repro/internal/plan"
	"repro/internal/set"
	"repro/internal/storage"
)

// QueryStats aggregates per-shard query accounting. The embedded
// core.QueryStats sums counters across shards (CPU is summed processor
// time, not wall time; the shards run concurrently).
type QueryStats struct {
	core.QueryStats
	// PlanGeneration is the plan generation that answered the query.
	// Every shard of one query answers from the same generation — the
	// scatter loads the engine's plan view exactly once.
	PlanGeneration uint64
	// ShardsQueried is the number of shards the scatter actually probed;
	// ShardsPruned is the number skipped by summary pruning (prune.go).
	// They sum to the shard count. Pruned shards contribute zero to every
	// other counter — pruning changes accounting, never matches.
	ShardsQueried int
	ShardsPruned  int
	// Gather is the wall time of the final cross-shard merge — the
	// gather half of scatter-gather. Zero for single-shard engines,
	// where no merge runs.
	Gather time.Duration
	// Plan is the planner's chosen plan label — "fi-probe",
	// "direct-scan", "screen-only", "mixed", or "cached" (served from the
	// result cache). Empty when the planner is disabled.
	Plan string
	// CacheHits / CacheMisses count result-cache outcomes for this query
	// (0 or 1 per query; batch callers sum them). Both zero when the
	// planner is disabled or the query is uncacheable.
	CacheHits   int
	CacheMisses int
	// PerShard holds each shard's own accounting, indexed by shard
	// (zero-valued entries for pruned shards).
	PerShard []core.QueryStats
}

// BatchResult is the outcome of one QueryBatch entry.
type BatchResult struct {
	Matches []core.Match
	Stats   QueryStats
	Err     error
}

// aggregate folds shard stats into an engine-level view. The partition
// points come from any shard (identical plans ⇒ identical enclose).
func aggregate(per []core.QueryStats) QueryStats {
	agg := QueryStats{PerShard: per}
	for i := range per {
		st := &per[i]
		agg.Candidates += st.Candidates
		agg.Results += st.Results
		agg.Screened += st.Screened
		agg.CPU += st.CPU
		agg.IndexIO.RecordSeq(st.IndexIO.Seq())
		agg.IndexIO.RecordRand(st.IndexIO.Rand())
		agg.FetchIO.RecordSeq(st.FetchIO.Seq())
		agg.FetchIO.RecordRand(st.FetchIO.Rand())
	}
	if len(per) > 0 {
		agg.EnclosedLo, agg.EnclosedHi = per[0].EnclosedLo, per[0].EnclosedHi
	}
	return agg
}

// toGlobalMatches rewrites shard-local sids to global sids in place. tg
// must have been captured after the shard query returned (see
// shard.mapping).
func toGlobalMatches(matches []core.Match, tg []uint32) []core.Match {
	for i := range matches {
		matches[i].SID = storage.SID(tg[matches[i].SID])
	}
	return matches
}

// queryPool resolves the scatter's worker budget the way core does.
func queryPool(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// Query answers the range query [s1, s2] with default options.
func (e *Engine) Query(q set.Set, s1, s2 float64) ([]core.Match, QueryStats, error) {
	return e.QueryWithOptions(q, s1, s2, core.QueryOptions{})
}

// QueryWithOptions scatters the range query across the shards the summary
// pruning pass cannot rule out and gathers the union. Matches come back
// in the core's total order over GLOBAL sids. The query is signed once
// and the signature fanned to every shard (embedders are identical across
// shards), and the option's worker pool is split proportionally across
// the SURVIVING shards only, so pruned shards strand no workers and the
// scatter never oversubscribes the pool beyond the one-worker-per-shard
// floor.
func (e *Engine) QueryWithOptions(q set.Set, s1, s2 float64, opt core.QueryOptions) ([]core.Match, QueryStats, error) {
	if ps := e.planner.Load(); ps != nil {
		return e.queryPlanned(ps, q, s1, s2, opt)
	}
	// One view load per query: every shard answers from this generation,
	// even if a retune swaps the plan mid-scatter.
	return e.queryScatter(e.loadView(), nil, q, s1, s2, opt)
}

// queryScatter runs one range query against view v under decision dec
// (nil = the default fi-probe pipeline). Per-shard executors come from
// the decision; summary pruning applies its occupancy-only variant for
// screen-only decisions (the size bound holds for exact Jaccard, not for
// estimates) and the full test otherwise.
func (e *Engine) queryScatter(v *planView, dec *plan.Decision, q set.Set, s1, s2 float64, opt core.QueryOptions) ([]core.Match, QueryStats, error) {
	if e.single {
		m, st, err := runShardPlan(v.cores[0], kindFor(dec, 0), q, nil, s1, s2, opt)
		return m, QueryStats{QueryStats: st, PlanGeneration: v.gen, ShardsQueried: 1, PerShard: []core.QueryStats{st}}, err
	}
	n := len(e.shards)
	per := make([]core.QueryStats, n)
	sc := e.getScatter(n, v.cores[0].Embedder().K())
	defer e.putScatter(sc)
	v.cores[0].Embedder().SignInto(q, sc.sig)
	var probe *core.ShardProbe
	var pruned int
	if dec != nil && dec.Kind == plan.ScreenOnly {
		probe, pruned = e.pruneOccupancy(v, q, sc.sig, s1, s2, sc.skip)
	} else {
		probe, pruned = e.pruneRange(v, q, sc.sig, s1, s2, sc.skip)
	}
	shares := core.SplitPool(queryPool(opt.Workers), n-pruned)
	var wg sync.WaitGroup
	widx := 0
	for si := range e.shards {
		if sc.skip[si] {
			continue
		}
		wg.Add(1)
		go func(si, w int) {
			defer wg.Done()
			sh := e.shards[si]
			inner := opt
			inner.Workers = shares[w]
			m, st, err := runShardPlan(v.cores[si], kindFor(dec, si), q, sc.sig, s1, s2, inner)
			if err != nil {
				sc.errs[si] = err
				return
			}
			// Capture the mapping after the query: every sid it returned
			// was fully inserted, so its toGlobal entry exists.
			sc.matches[si] = toGlobalMatches(m, sh.mapping())
			per[si] = st
		}(si, widx)
		widx++
	}
	wg.Wait()
	agg := aggregate(per)
	agg.PlanGeneration = v.gen
	agg.ShardsQueried = n - pruned
	agg.ShardsPruned = pruned
	if probe != nil {
		// Shard 0 may have been pruned; the probe carries the enclosure
		// every shard would have reported.
		agg.EnclosedLo, agg.EnclosedHi = probe.Lo, probe.Hi
	}
	for _, err := range sc.errs {
		if err != nil {
			return nil, agg, err
		}
	}
	start := time.Now()
	m := gather(sc.matches)
	agg.Gather = time.Since(start)
	return m, agg, nil
}

// gather concatenates per-shard match lists and restores the total order.
// Within a shard, matches arrive ordered by (similarity desc, local sid
// asc) — but local order is per-shard arrival order, not global order, so
// a plain k-way merge is not sound; a full sort over the union is.
func gather(perShard [][]core.Match) []core.Match {
	total := 0
	for _, m := range perShard {
		total += len(m)
	}
	out := make([]core.Match, 0, total)
	for _, m := range perShard {
		out = append(out, m...)
	}
	core.SortMatches(out)
	return out
}

// QueryBatch answers a slice of range queries: every query is signed once
// and pruned against the shard summaries, each shard runs its sub-batch
// of surviving queries against its partition, then per-query results
// gather across shards. Entry i's outcome is exactly what
// Query(queries[i]) would return. The worker pool is split proportionally
// over only the shards with non-empty sub-batches, so a shard whose every
// query was pruned (or that answers instantly) strands no workers.
func (e *Engine) QueryBatch(queries []core.BatchQuery, opt core.QueryOptions) []BatchResult {
	out := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return out
	}
	if ps := e.planner.Load(); ps != nil {
		e.queryBatchPlanned(ps, queries, opt, out)
		return out
	}
	e.queryBatchInto(e.loadView(), queries, opt, out)
	return out
}

// queryBatchInto is the default (fi-probe) batch pipeline against a fixed
// view, writing entry i's outcome to out[i]. The planner routes its
// fi-probe sub-batches here so they keep the shared probe matrix and
// proportional pool split.
func (e *Engine) queryBatchInto(v *planView, queries []core.BatchQuery, opt core.QueryOptions, out []BatchResult) {
	if e.single {
		res := v.cores[0].QueryBatch(queries, opt)
		for i, r := range res {
			out[i] = BatchResult{
				Matches: r.Matches,
				Stats:   QueryStats{QueryStats: r.Stats, PlanGeneration: v.gen, ShardsQueried: 1, PerShard: []core.QueryStats{r.Stats}},
				Err:     r.Err,
			}
		}
		return
	}
	n := len(e.shards)

	// Sign every query once and derive its pruning probe (nil probe =
	// unprunable: invalid range or no usable FI — every shard runs it and
	// fails identically).
	emb := v.cores[0].Embedder()
	sigs := make([]minhash.Signature, len(queries))
	probes := make([]*core.ShardProbe, len(queries))
	buf := make([]uint64, len(queries)*emb.K())
	for i := range queries {
		sigs[i] = minhash.Signature(buf[i*emb.K() : (i+1)*emb.K() : (i+1)*emb.K()])
		emb.SignInto(queries[i].Q, sigs[i])
		if !e.pruneOff.Load() {
			if p, ok := v.cores[0].BuildRangeProbe(queries[i].Q, sigs[i], queries[i].Lo, queries[i].Hi); ok {
				probes[i] = p
			}
		}
	}

	// Per-shard sub-batches: idxs[si][j] is the original position of the
	// shard's j-th surviving query.
	subs := make([][]core.BatchQuery, n)
	idxs := make([][]int, n)
	participating := 0
	for si := 0; si < n; si++ {
		sum := v.cores[si].Summary()
		for i := range queries {
			if p := probes[i]; p != nil && (sum.Empty(p) || sum.SizeUpperBound(p.QLen) < queries[i].Lo) {
				continue
			}
			subs[si] = append(subs[si], core.BatchQuery{Q: queries[i].Q, Lo: queries[i].Lo, Hi: queries[i].Hi, Sig: sigs[i]})
			idxs[si] = append(idxs[si], i)
		}
		if len(subs[si]) > 0 {
			participating++
		}
	}

	shardRes := make([][]core.BatchResult, n)
	tgs := make([][]uint32, n)
	shares := core.SplitPool(queryPool(opt.Workers), participating)
	var wg sync.WaitGroup
	widx := 0
	for si := range e.shards {
		if len(subs[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si, w int) {
			defer wg.Done()
			sh := e.shards[si]
			inner := opt
			inner.Workers = shares[w]
			shardRes[si] = v.cores[si].QueryBatch(subs[si], inner)
			tgs[si] = sh.mapping()
		}(si, widx)
		widx++
	}
	wg.Wait()

	// Scatter shard answers back to their original batch positions.
	type slot struct {
		stats   core.QueryStats
		matches []core.Match
		ran     bool
		err     error
	}
	slots := make([][]slot, len(queries))
	for i := range slots {
		slots[i] = make([]slot, n)
	}
	for si := 0; si < n; si++ {
		for j, i := range idxs[si] {
			r := shardRes[si][j]
			slots[i][si] = slot{stats: r.Stats, matches: toGlobalMatches(r.Matches, tgs[si]), ran: true, err: r.Err}
		}
	}
	parts := make([][]core.Match, n)
	for i := range queries {
		per := make([]core.QueryStats, n)
		queried := 0
		var firstErr error
		for si := 0; si < n; si++ {
			s := slots[i][si]
			if !s.ran {
				parts[si] = nil
				continue
			}
			queried++
			if s.err != nil && firstErr == nil {
				firstErr = s.err
			}
			per[si] = s.stats
			parts[si] = s.matches
		}
		agg := aggregate(per)
		agg.PlanGeneration = v.gen
		agg.ShardsQueried = queried
		agg.ShardsPruned = n - queried
		if p := probes[i]; p != nil {
			agg.EnclosedLo, agg.EnclosedHi = p.Lo, p.Hi
		}
		if firstErr != nil {
			out[i] = BatchResult{Stats: agg, Err: firstErr}
			continue
		}
		start := time.Now()
		m := gather(parts)
		agg.Gather = time.Since(start)
		out[i] = BatchResult{Matches: m, Stats: agg}
	}
}

// TopK gathers each shard's k best and keeps the global k best. A shard's
// local top-k is a superset of its contribution to the global top-k, so
// the gathered answer has exactly the quality of a monolithic TopK (the
// same one-sided filter approximation, no extra loss).
//
// Two prunes apply, both whole-shard and both sound to byte-identity of
// the truncated gather. Occupancy: a shard none of whose SFI (or δ-DFI)
// probe keys are occupied surfaces no candidates — skipping it removes
// nothing from the union. Threshold: shard goroutines share an atomic
// k-th-best similarity, raised by every shard that returns a full k
// results (its local k-th lower-bounds the final global k-th); a shard
// whose size-histogram upper bound falls STRICTLY below the shared
// threshold can only produce matches that sort strictly after the final
// k-th position, so the truncated gather is unchanged. Strict inequality
// keeps ties safe (an equal-similarity match could win its tie-break on
// sid).
func (e *Engine) TopK(q set.Set, k int) ([]core.Match, QueryStats, error) {
	v := e.loadView()
	if e.single {
		m, st, err := v.cores[0].TopK(q, k)
		return m, QueryStats{QueryStats: st, PlanGeneration: v.gen, ShardsQueried: 1, PerShard: []core.QueryStats{st}}, err
	}
	n := len(e.shards)
	per := make([]core.QueryStats, n)
	sc := e.getScatter(n, v.cores[0].Embedder().K())
	defer e.putScatter(sc)
	v.cores[0].Embedder().SignInto(q, sc.sig)

	// Occupancy prune. Only for valid k — k <= 0 must reach the cores so
	// every shard fails identically.
	var probe *core.ShardProbe
	pruned := 0
	if k > 0 && !e.pruneOff.Load() {
		probe = v.cores[0].BuildTopKProbe(q, sc.sig)
		for si := range e.shards {
			if v.cores[si].Summary().Empty(probe) {
				sc.skip[si] = true
				pruned++
			}
		}
	}

	var thr topkThreshold
	var latePruned atomic.Int64
	var wg sync.WaitGroup
	for si := range e.shards {
		if sc.skip[si] {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sh := e.shards[si]
			if probe != nil {
				if ub := v.cores[si].Summary().SizeUpperBound(probe.QLen); ub < thr.load() {
					latePruned.Add(1)
					return
				}
			}
			m, st, err := v.cores[si].TopKPresigned(q, sc.sig, k)
			if err != nil {
				sc.errs[si] = err
				return
			}
			if len(m) >= k {
				thr.raise(m[k-1].Similarity)
			}
			sc.matches[si] = toGlobalMatches(m, sh.mapping())
			per[si] = st
		}(si)
	}
	wg.Wait()
	pruned += int(latePruned.Load())
	agg := aggregate(per)
	agg.PlanGeneration = v.gen
	agg.ShardsQueried = n - pruned
	agg.ShardsPruned = pruned
	for _, err := range sc.errs {
		if err != nil {
			return nil, agg, err
		}
	}
	start := time.Now()
	all := gather(sc.matches)
	if len(all) > k {
		all = all[:k]
	}
	agg.Gather = time.Since(start)
	agg.Results = len(all)
	return all, agg, nil
}

// QueryAuto prices the range [lo, hi] once with the planner's exact plans
// and runs each shard on the access path the decision picks — the
// Section 6 index-vs-scan rule: the filter pipeline on FIProbe shards, an
// exact sequential heap scan (no false negatives) on DirectScan shards.
// Every shard runs; summary pruning does not apply, since the scan path
// answers beyond filter candidacy. It errors when no similarity
// distribution exists to price from, as for a freshly loaded snapshot.
func (e *Engine) QueryAuto(q set.Set, lo, hi float64) ([]core.Match, plan.Decision, QueryStats, error) {
	v := e.loadView()
	dec, ok := e.computeDecision(v, lo, hi, core.QueryOptions{})
	if !ok {
		return nil, dec, QueryStats{PlanGeneration: v.gen}, errNoDistribution
	}
	sig := v.cores[0].Embedder().Sign(q)
	run := func(si int) ([]core.Match, core.QueryStats, error) {
		if kindFor(&dec, si) == plan.DirectScan {
			return v.cores[si].ExactScan(q, lo, hi)
		}
		return v.cores[si].QueryPresigned(q, sig, lo, hi, core.QueryOptions{})
	}
	if e.single {
		m, st, err := run(0)
		return m, dec, QueryStats{QueryStats: st, PlanGeneration: v.gen, ShardsQueried: 1, PerShard: []core.QueryStats{st}}, err
	}
	n := len(e.shards)
	per := make([]core.QueryStats, n)
	matches := make([][]core.Match, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for si := range e.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			m, st, err := run(si)
			if err != nil {
				errs[si] = err
				return
			}
			matches[si] = toGlobalMatches(m, e.shards[si].mapping())
			per[si] = st
		}(si)
	}
	wg.Wait()
	agg := aggregate(per)
	agg.PlanGeneration = v.gen
	agg.ShardsQueried = n
	for _, err := range errs {
		if err != nil {
			return nil, dec, agg, err
		}
	}
	return gather(matches), dec, agg, nil
}
