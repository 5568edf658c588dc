package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	ssr "repro"
	"repro/internal/optimize"
	"repro/internal/server"
	"repro/internal/set"
	"repro/internal/wal"
	"repro/internal/workload"
)

// closedSetup generates a closed-loop workload's inputs and sets its
// in-memory index up setupReps times.
func closedSetup(sp spec, env *runEnv) (sets []set.Set, queries []workload.Query, ix *ssr.Index, setup setupTimes, err error) {
	if sets, err = set1(collectionSize, set1Seed); err != nil {
		return
	}
	if queries, err = closedQueries(sp, len(sets), env.seed+1); err != nil {
		return
	}
	lists := allNames(sets)
	ix, setup, err = setupIndex(
		func(int) (*ssr.Index, error) { return ssr.Build(load(lists), indexOptions(sp)) },
		func(*ssr.Index) error { return nil })
	return
}

// queryRecord is one closed-loop query and what came back.
type queryRecord struct {
	matches      []ssr.Match
	stats        ssr.Stats
	err          error
	latency, cpu time.Duration
}

// runClosed measures the end-to-end metrics of a closed-loop workload: one
// client issues QuerySID calls back to back for the measured window (and
// at least through the evaluation prefix), then every answer is checked.
func runClosed(sp spec, env *runEnv) (*result, error) {
	sets, queries, ix, setup, err := closedSetup(sp, env)
	if err != nil {
		return nil, err
	}
	heap := heapMB()

	var recs []queryRecord
	start, cpuStart := time.Now(), cpuNow()
	deadline := start.Add(env.seconds)
	for i := 0; i < len(queries) && (i < evalQueries || time.Now().Before(deadline)); i++ {
		q := queries[i]
		c0, t0 := cpuNow(), time.Now()
		m, st, err := ix.QuerySID(q.SID, q.Lo, q.Hi)
		lat := time.Since(t0)
		recs = append(recs, queryRecord{matches: m, stats: st, err: err, latency: lat, cpu: cpuNow() - c0})
	}
	elapsed, cpuTotal := time.Since(start), cpuNow()-cpuStart

	res := &result{attempted: len(recs)}
	lookup := func(sid int) (set.Set, bool) {
		if sid < 0 || sid >= len(sets) {
			return set.Set{}, false
		}
		return sets[sid], true
	}
	var lat, cpu []float64
	overLimit := 0
	for i, r := range recs {
		q := queries[i]
		if r.err != nil {
			res.failed++
			continue
		}
		if bad := verify(sets[q.SID], q.Lo, q.Hi, r.matches, lookup); bad != "" {
			res.failed++
			res.mismatch("query %d (sid %d, [%g, %g]): %s", i, q.SID, q.Lo, q.Hi, bad)
			continue
		}
		lat = append(lat, ms(r.latency))
		cpu = append(cpu, ms(r.cpu))
		if r.latency > sp.limit {
			overLimit++
		}
	}

	// The evaluation prefix: recall against the brute-force oracle, mean
	// simulated I/O, exact work counts and the answer checksum.
	var hits, want, candidates, results, randPages, seqPages int
	var simIO float64
	sum := newChecksum()
	for i := 0; i < evalQueries; i++ {
		q, r := queries[i], recs[i]
		want += truth(sets[q.SID], q.Lo, q.Hi, sets)
		hits += len(r.matches)
		candidates += r.stats.Candidates
		results += r.stats.Results
		randPages += int(r.stats.RandomPageReads)
		seqPages += int(r.stats.SequentialPageReads)
		simIO += ms(r.stats.SimulatedIOTime)
		sum.add(i, r.matches)
	}

	res.set("setup_s", "s", median(setup.cpu))
	res.set("query_cpu_p50_ms", "ms", quantile(cpu, 0.5))
	res.set("query_cpu_p99_ms", "ms", quantile(cpu, 0.99))
	res.set("cpu_ms_per_op", "ms", ms(cpuTotal)/float64(len(recs)))
	res.set("recall", "ratio", recallOf(hits, want))
	res.set("sim_io_ms_per_query", "ms", simIO/evalQueries)
	res.set("heap_mb", "MB", heap)
	res.set("ok_frac", "ratio", okFrac(res))
	res.set("slo_ok_frac", "ratio", float64(res.attempted-res.failed-overLimit)/float64(res.attempted))

	res.note("setupSeconds", setup.report())
	res.note("query_p50_ms", quantile(lat, 0.5))
	res.note("query_p99_ms", quantile(lat, 0.99))
	res.note("query_qps", float64(len(recs))/elapsed.Seconds())
	res.note("queryLatencyMs", latencySummary(lat))
	res.note("queryCPUMs", latencySummary(cpu))
	res.note("errorFrac", float64(res.failed)/float64(res.attempted))
	res.note("sloMissFrac", float64(res.failed+overLimit)/float64(res.attempted))
	res.note("counts", map[string]any{
		"queries":         evalQueries,
		"candidates":      candidates,
		"results":         results,
		"truth":           want,
		"randomPages":     randPages,
		"sequentialPages": seqPages,
		"answerChecksum":  sum.String(),
	})
	if len(lat) < 1000 {
		res.note("p99Support", fmt.Sprintf("%d queries, %d beyond p99 (fewer than the 1000 a p99 with ten samples beyond it needs)", len(lat), beyond(lat, 0.99)))
	}
	return res, nil
}

// recallOf is hits over true answers (1 when nothing qualified).
func recallOf(hits, want int) float64 {
	if want == 0 {
		return 1
	}
	return float64(hits) / float64(want)
}

// okFrac is the share of attempted operations that succeeded and answered
// correctly: one minus error_frac, which reads 0 on a healthy run.
func okFrac(r *result) float64 {
	return float64(r.attempted-r.failed) / float64(r.attempted)
}

// traceClosed is a closed-loop workload's traced run: one set-up, the
// build replayed stage by stage, an untraced pass for the tracing
// overhead, then traced queries for the measured window, then the write
// path replayed with a sample of the collection as its insert stream.
func traceClosed(sp spec, env *runEnv) (*result, error) {
	sets, err := set1(collectionSize, set1Seed)
	if err != nil {
		return nil, err
	}
	queries, err := closedQueries(sp, len(sets), env.seed+1)
	if err != nil {
		return nil, err
	}
	lists := allNames(sets)
	runs := optimize.PlanRuns()
	t0 := time.Now()
	ix, err := ssr.Build(load(lists), indexOptions(sp))
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	planRuns := optimize.PlanRuns() - runs
	l := newLayers(ix, server.New(ix))
	tr := newTracer()
	bt, err := l.replayBuild(tr)
	if err != nil {
		return nil, fmt.Errorf("build replay: %w", err)
	}

	tq := make([]tracedQuery, len(queries))
	for i, q := range queries {
		tq[i] = tracedQuery{sid: q.SID, lo: q.Lo, hi: q.Hi}
	}
	base, gaps, err := l.baseline(tq[:exactPrefix])
	if err != nil {
		return nil, err
	}
	res := &result{attempted: exactPrefix}
	lookup := func(sid int) (set.Set, bool) {
		if sid < 0 || sid >= len(sets) {
			return set.Set{}, false
		}
		return sets[sid], true
	}
	var reqs []reqTrace
	sum := newChecksum()
	deadline := time.Now().Add(env.seconds)
	for i := 0; i < len(tq) && (i < exactPrefix || time.Now().Before(deadline)); i++ {
		q := tq[i]
		res.attempted++
		rt, err := l.traceQuery(tr, i, q.sid, q.lo, q.hi)
		if err != nil {
			res.failed++
			continue
		}
		if bad := verify(sets[q.sid], q.lo, q.hi, rt.matches, lookup); bad != "" {
			res.failed++
			res.mismatch("traced query %d (sid %d, [%g, %g]): %s", i, q.sid, q.lo, q.hi, bad)
		}
		if i < exactPrefix {
			sum.add(i, rt.matches)
		}
		reqs = append(reqs, rt)
	}
	if len(reqs) < exactPrefix {
		return nil, fmt.Errorf("only %d of the first %d traced queries succeeded", len(reqs), exactPrefix)
	}

	// The write path: a fixed sample of the collection replayed as inserts.
	var wt writeTimes
	if wt.checkpoint, err = checkpointVia(tr, filepath.Join(env.dir, "checkpoint"), ix); err != nil {
		return nil, fmt.Errorf("checkpoint replay: %w", err)
	}
	rng := rand.New(rand.NewSource(env.seed + 5))
	var recs []wal.Record
	var sample []set.Set
	next := ix.Internal().NumAllocated()
	for i, k := range rng.Perm(len(sets))[:writeSample] {
		recs = append(recs, wal.Record{Op: wal.OpInsert, SID: uint32(next + i), Elements: lists[k]})
		sample = append(sample, l.sets[k])
	}
	if err := replayWAL(tr, env.dir, recs, &wt); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	if err := l.replayInserts(tr, sample, &wt); err != nil {
		return nil, fmt.Errorf("insert replay: %w", err)
	}

	// A closed loop has no schedule to fall behind; its generator's
	// lateness is the client's turnaround between calls.
	layerReport(res, tr, reqs, base, bt, wt, planRuns, 0, quantile(gaps, 0.99))
	res.note("setupSeconds", setup.Seconds())
	res.note("answerChecksum", sum.String())
	if err := tr.write(env.trace); err != nil {
		return nil, err
	}
	res.note("traceFile", env.trace)
	return res, nil
}

// writeSample is how many collection sets a read-only workload's traced
// run replays through the write path.
const writeSample = 200
