package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	ssr "repro"
	"repro/internal/optimize"
	"repro/internal/server"
	"repro/internal/set"
	"repro/internal/wal"
)

// churn-serve's traffic: a fixed arrival rate and request mix, with the
// retune issued once, half way through the schedule.
const (
	churnRate      = 60 // requests per second
	churnQueryFrac = 0.65
	churnDelFrac   = 0.175 // the rest are inserts
)

// churnBands are the fixed similarity ranges of /query/sid requests.
var churnBands = [][2]float64{{0.8, 1}, {0.5, 0.8}, {0.3, 0.5}}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// op is one scheduled request.
type op struct {
	kind   opKind
	sid    int // query or delete target
	lo, hi float64
	ins    int // insert: index into the stream
	body   []byte
}

// opResult is what one request saw, timed from when it was due.
type opResult struct {
	start, end time.Time
	status     int
	body       []byte
}

// churnInputs is churn-serve's generated workload.
type churnInputs struct {
	base, stream []set.Set
	baseNames    [][]string
	ops          []op
	retuneAt     int
}

func churnGenerate(env *runEnv) (*churnInputs, error) {
	base, err := mirrorBase(churnBase, churnBaseSeed)
	if err != nil {
		return nil, err
	}
	total := int(churnRate * env.seconds.Seconds())
	if total < 1 {
		total = 1
	}
	// A diverse Set1-style insert stream: it pulls D_S away from the
	// near-duplicate mode the build-time plan was cut for.
	stream, err := set1(total, churnInsertSeed)
	if err != nil {
		return nil, err
	}
	in := &churnInputs{base: base, stream: stream, baseNames: allNames(base), retuneAt: total / 2}
	rng := rand.New(rand.NewSource(env.seed + 3))
	popular := newZipfPicker(rng, len(base))
	victims := rng.Perm(len(base))
	nIns, nDel := 0, 0
	for i := 0; i < total; i++ {
		x := rng.Float64()
		var o op
		switch {
		case x < churnQueryFrac:
			b := churnBands[rng.Intn(len(churnBands))]
			o = op{kind: opQuery, sid: popular.pick(), lo: b[0], hi: b[1]}
			o.body = []byte(fmt.Sprintf(`{"sid":%d,"lo":%s,"hi":%s}`, o.sid, ftoa(o.lo), ftoa(o.hi)))
		case x < churnQueryFrac+churnDelFrac && nDel < len(victims):
			o = op{kind: opDelete, sid: victims[nDel]}
			nDel++
		default:
			o = op{kind: opInsert, ins: nIns}
			b, err := json.Marshal(map[string][]string{"elements": names(stream[nIns])})
			if err != nil {
				return nil, err
			}
			o.body = b
			nIns++
		}
		in.ops = append(in.ops, o)
	}
	return in, nil
}

// churnOpen creates the durable, sharded, planner-on index in a fresh
// directory — one set-up repetition.
func churnOpen(sp spec, env *runEnv, in *churnInputs, rep int) (*ssr.Index, error) {
	dir := filepath.Join(env.dir, "index-"+strconv.Itoa(rep))
	return ssr.CreateDurable(dir, load(in.baseNames), indexOptions(sp), ssr.DurableOptions{Sync: ssr.SyncAlways})
}

func churnSetup(sp spec, env *runEnv, in *churnInputs) (*ssr.Index, setupTimes, error) {
	return setupIndex(
		func(rep int) (*ssr.Index, error) { return churnOpen(sp, env, in, rep) },
		func(ix *ssr.Index) error { return ix.Close() })
}

// traffic is one churn-serve run's outcome.
type traffic struct {
	results    []opResult
	due        []time.Time
	retune     time.Duration
	retuneGen  uint64
	retuneRuns int64
	retuneErr  error
	window     time.Duration
}

// serve drives the schedule through the server handler in process: one
// generator releases request i at its due time to at most nproc workers,
// so a stall delays later requests and shows in their latency.
func serve(h http.Handler, ix *ssr.Index, in *churnInputs) *traffic {
	n := len(in.ops)
	t := &traffic{results: make([]opResult, n), due: make([]time.Time, n)}
	jobs := make(chan int)
	var workers, retuner sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := range jobs {
				t.results[i] = do(h, in.ops[i])
			}
		}()
	}
	gap := time.Second / churnRate
	start := time.Now().Add(10 * time.Millisecond)
	for i := range in.ops {
		t.due[i] = start.Add(time.Duration(i) * gap)
		if d := time.Until(t.due[i]); d > 0 {
			time.Sleep(d)
		}
		if i == in.retuneAt {
			retuner.Add(1)
			go func() {
				defer retuner.Done()
				runs := optimize.PlanRuns()
				t0 := time.Now()
				rep, err := ix.Retune()
				t.retune, t.retuneGen, t.retuneErr = time.Since(t0), rep.Generation, err
				t.retuneRuns = optimize.PlanRuns() - runs
				logf("retune: %.2fs", t.retune.Seconds())
			}()
		}
		jobs <- i
	}
	close(jobs)
	workers.Wait()
	retuner.Wait()
	last := start
	for _, r := range t.results {
		if r.end.After(last) {
			last = r.end
		}
	}
	t.window = last.Sub(start)
	return t
}

// do issues one request against the handler.
func do(h http.Handler, o op) opResult {
	var req *http.Request
	switch o.kind {
	case opQuery:
		req = httptest.NewRequest(http.MethodPost, "/query/sid", bytes.NewReader(o.body))
	case opInsert:
		req = httptest.NewRequest(http.MethodPost, "/sets", bytes.NewReader(o.body))
	default:
		req = httptest.NewRequest(http.MethodDelete, "/sets/"+strconv.Itoa(o.sid), nil)
	}
	rec := httptest.NewRecorder()
	r := opResult{start: time.Now()}
	h.ServeHTTP(rec, req)
	r.end = time.Now()
	r.status = rec.Code
	r.body = rec.Body.Bytes()
	return r
}

// queryResponse is the part of a /query/sid answer the checks read.
type queryResponse struct {
	Matches []ssr.Match `json:"matches"`
	Stats   struct {
		CacheHits   int `json:"cacheHits"`
		CacheMisses int `json:"cacheMisses"`
	} `json:"stats"`
}

// churnOutcome is the checked traffic: latencies, failures, and the live
// collection it left behind.
type churnOutcome struct {
	queryLat, writeLat, lateness []float64
	// service is each kind's busy time per request (start to end).
	service                [3][]float64
	overLimit              int
	cacheHits, cacheMisses int
	inserted               map[int]int // sid → stream index
	deleted                map[int]time.Time
	writes                 []wal.Record
}

// check verifies every response of the run. Matches must be exact and in
// range, and no query that started after a delete was acknowledged may
// return the deleted sid. Sets never change once added, so the exact check
// holds whatever writes ran beside the query.
func (in *churnInputs) check(sp spec, t *traffic, res *result) *churnOutcome {
	out := &churnOutcome{inserted: map[int]int{}, deleted: map[int]time.Time{}}
	res.attempted = len(in.ops)
	for i, o := range in.ops {
		r := t.results[i]
		switch o.kind {
		case opInsert:
			var body struct{ SID *int }
			if r.status != http.StatusCreated || json.Unmarshal(r.body, &body) != nil || body.SID == nil {
				continue
			}
			out.inserted[*body.SID] = o.ins
			out.writes = append(out.writes, wal.Record{Op: wal.OpInsert, SID: uint32(*body.SID), Elements: names(in.stream[o.ins])})
		case opDelete:
			if r.status == http.StatusOK {
				out.deleted[o.sid] = r.end
				out.writes = append(out.writes, wal.Record{Op: wal.OpDelete, SID: uint32(o.sid)})
			}
		}
	}
	lookup := func(sid int) (set.Set, bool) {
		if sid >= 0 && sid < len(in.base) {
			return in.base[sid], true
		}
		k, ok := out.inserted[sid]
		if !ok {
			return set.Set{}, false
		}
		return in.stream[k], true
	}
	for i, o := range in.ops {
		r := t.results[i]
		lat := r.end.Sub(t.due[i])
		out.service[o.kind] = append(out.service[o.kind], ms(r.end.Sub(r.start)))
		out.lateness = append(out.lateness, ms(r.start.Sub(t.due[i])))
		ok := false
		switch o.kind {
		case opQuery:
			var body queryResponse
			if r.status != http.StatusOK || json.Unmarshal(r.body, &body) != nil {
				break
			}
			out.cacheHits += body.Stats.CacheHits
			out.cacheMisses += body.Stats.CacheMisses
			if bad := verify(in.base[o.sid], o.lo, o.hi, body.Matches, lookup); bad != "" {
				res.mismatch("query %d (sid %d, [%g, %g]): %s", i, o.sid, o.lo, o.hi, bad)
				break
			}
			stale := false
			for _, m := range body.Matches {
				if at, gone := out.deleted[m.SID]; gone && at.Before(r.start) {
					res.mismatch("query %d returned sid %d deleted %v before it started", i, m.SID, r.start.Sub(at))
					stale = true
					break
				}
			}
			if stale {
				break
			}
			ok = true
			out.queryLat = append(out.queryLat, ms(lat))
		case opInsert:
			ok = r.status == http.StatusCreated
			if ok {
				out.writeLat = append(out.writeLat, ms(lat))
			}
		case opDelete:
			ok = r.status == http.StatusOK
			if ok {
				out.writeLat = append(out.writeLat, ms(lat))
			}
		}
		if !ok {
			res.failed++
		} else if lat > sp.limit {
			out.overLimit++
		}
	}
	return out
}

// live is the collection the run left: base sets not deleted plus every
// acknowledged insert, as (sid, set) pairs.
func (in *churnInputs) live(out *churnOutcome) (sids []int, sets []set.Set) {
	for sid, s := range in.base {
		if _, gone := out.deleted[sid]; !gone {
			sids, sets = append(sids, sid), append(sets, s)
		}
	}
	ins := make([]int, 0, len(out.inserted))
	for sid := range out.inserted {
		ins = append(ins, sid)
	}
	sort.Ints(ins)
	for _, sid := range ins {
		sids, sets = append(sids, sid), append(sets, in.stream[out.inserted[sid]])
	}
	return sids, sets
}

// churnEval answers a fixed evaluation set against the final live
// collection and measures recall against the brute-force oracle; every
// answer is checked, and none may name a deleted sid.
func churnEval(ix *ssr.Index, in *churnInputs, out *churnOutcome, seed int64, res *result) (recall, simIO float64, cpu []float64, err error) {
	sids, sets := in.live(out)
	pos := make(map[int]int, len(sids))
	for i, sid := range sids {
		pos[sid] = i
	}
	lookup := func(sid int) (set.Set, bool) {
		i, ok := pos[sid]
		if !ok {
			return set.Set{}, false
		}
		return sets[i], true
	}
	rng := rand.New(rand.NewSource(seed + 4))
	hits, want := 0, 0
	for i := 0; i < evalQueries; i++ {
		k := rng.Intn(len(sids))
		b := churnBands[rng.Intn(len(churnBands))]
		c0 := cpuNow()
		m, st, err := ix.QuerySID(sids[k], b[0], b[1])
		cpu = append(cpu, ms(cpuNow()-c0))
		if err != nil {
			return 0, 0, nil, fmt.Errorf("evaluation query %d: %w", i, err)
		}
		if bad := verify(sets[k], b[0], b[1], m, lookup); bad != "" {
			res.mismatch("evaluation query %d (sid %d, [%g, %g]) on the final collection: %s", i, sids[k], b[0], b[1], bad)
		}
		hits += len(m)
		want += truth(sets[k], b[0], b[1], sets)
		simIO += ms(st.SimulatedIOTime)
	}
	return recallOf(hits, want), simIO / evalQueries, cpu, nil
}

// walBytes is the exact framed size of the run's write records.
func walBytes(recs []wal.Record) int {
	n := 0
	for _, r := range recs {
		n += len(wal.AppendRecordFrame(nil, r))
	}
	return n
}

// runChurn measures churn-serve's end-to-end metrics.
func runChurn(sp spec, env *runEnv) (*result, error) {
	in, err := churnGenerate(env)
	if err != nil {
		return nil, err
	}
	ix, setup, err := churnSetup(sp, env, in)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	heap := heapMB()
	cpuStart := cpuNow()
	t := serve(server.New(ix), ix, in)
	cpuTraffic := cpuNow() - cpuStart
	if t.retuneErr != nil {
		return nil, fmt.Errorf("retune: %w", t.retuneErr)
	}
	logf("traffic done: %d requests in %.2fs, retune %.2fs", len(t.results), t.window.Seconds(), t.retune.Seconds())
	res := &result{}
	res.note("planAfterRetune", planSummary(ix.Plan()))
	out := in.check(sp, t, res)
	recall, simIO, cpu, err := churnEval(ix, in, out, env.seed, res)
	if err != nil {
		return nil, err
	}
	if err := ix.Close(); err != nil {
		return nil, err
	}
	res.set("setup_s", "s", median(setup.cpu))
	res.set("query_cpu_p50_ms", "ms", quantile(cpu, 0.5))
	res.set("query_cpu_p99_ms", "ms", quantile(cpu, 0.99))
	res.set("cpu_ms_per_op", "ms", ms(cpuTraffic)/float64(len(in.ops)))
	res.set("recall", "ratio", recall)
	res.set("sim_io_ms_per_query", "ms", simIO)
	res.set("heap_mb", "MB", heap)
	res.set("ok_frac", "ratio", okFrac(res))
	res.set("slo_ok_frac", "ratio", float64(res.attempted-res.failed-out.overLimit)/float64(res.attempted))
	churnNotes(res, setup, t, out)
	return res, nil
}

// churnNotes reports churn-serve's figures the common metric list cannot
// carry: write latency, retune time, generator lateness and validity.
func churnNotes(res *result, setup setupTimes, t *traffic, out *churnOutcome) {
	late := quantile(out.lateness, 0.99)
	res.note("setupSeconds", setup.report())
	res.note("query_p50_ms", quantile(out.queryLat, 0.5))
	res.note("query_p99_ms", quantile(out.queryLat, 0.99))
	res.note("query_qps", float64(len(out.queryLat))/t.window.Seconds())
	res.note("queryLatencyMs", latencySummary(out.queryLat))
	res.note("writeLatencyMs", latencySummary(out.writeLat))
	res.note("write_p50_ms", quantile(out.writeLat, 0.5))
	res.note("write_p99_ms", quantile(out.writeLat, 0.99))
	res.note("retune_s", t.retune.Seconds())
	res.note("serviceMs", map[string]any{
		"query":  latencySummary(out.service[opQuery]),
		"insert": latencySummary(out.service[opInsert]),
		"delete": latencySummary(out.service[opDelete]),
	})
	res.note("errorFrac", float64(res.failed)/float64(res.attempted))
	res.note("sloMissFrac", float64(res.failed+out.overLimit)/float64(res.attempted))
	res.note("lateMsP99", late)
	if n := len(out.queryLat); n < 1000 {
		res.note("p99Support", fmt.Sprintf("%d queries, %d beyond p99 (fewer than the 1000 a p99 with ten samples beyond it needs)", n, beyond(out.queryLat, 0.99)))
	}
	// The generator fell behind when its p99 lateness passed the latency
	// limit: the offered rate was not sustained, and the run is invalid.
	limit := ms(specs["churn-serve"].limit)
	res.note("valid", late <= limit)
	res.note("trafficCounts", map[string]any{
		"requests":          len(t.results),
		"queries":           len(out.queryLat),
		"writes":            len(out.writes),
		"inserted":          len(out.inserted),
		"deleted":           len(out.deleted),
		"walBytes":          walBytes(out.writes),
		"planRunsPerRetune": t.retuneRuns,
		"retuneGeneration":  t.retuneGen,
		"resultCacheHits":   out.cacheHits,
		"resultCacheMisses": out.cacheMisses,
	})
	if late > limit {
		fmt.Fprintf(os.Stderr, "perfbench: churn-serve generator fell behind (p99 lateness %.1f ms > %.0f ms): run invalid\n", late, limit)
	}
}

// traceChurn is churn-serve's traced run: one set-up and its build
// replayed stage by stage, the same traffic with a span per request and
// for the retune, one explicit checkpoint, then a replay of the run's
// first queries layer by layer (planner off, so the replay mirrors the
// fi-probe pipeline) and of its writes through the WAL and the engine.
func traceChurn(sp spec, env *runEnv) (*result, error) {
	in, err := churnGenerate(env)
	if err != nil {
		return nil, err
	}
	runs := optimize.PlanRuns()
	t0 := time.Now()
	ix, err := churnOpen(sp, env, in, 0)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	setup := time.Since(t0)
	planRuns := optimize.PlanRuns() - runs
	srv := server.New(ix)
	tr := newTracer()
	bt, err := newLayers(ix, srv).replayBuild(tr)
	if err != nil {
		return nil, fmt.Errorf("build replay: %w", err)
	}

	t := serve(srv, ix, in)
	if t.retuneErr != nil {
		return nil, fmt.Errorf("retune: %w", t.retuneErr)
	}
	for i, r := range t.results {
		root := tr.record("loadgen.request", i, -1, t.due[i], r.end)
		tr.record("server.serve", i, root, r.start, r.end)
	}
	res := &result{}
	out := in.check(sp, t, res)

	var wt writeTimes
	id := tr.begin("recovery.checkpoint", -1, -1)
	err = ix.Checkpoint()
	wt.checkpoint = tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}

	ix.DisablePlanner()
	l := newLayers(ix, srv)
	var tq []tracedQuery
	for _, o := range in.ops {
		if o.kind == opQuery && len(tq) < 2*exactPrefix {
			tq = append(tq, tracedQuery{sid: o.sid, lo: o.lo, hi: o.hi})
		}
	}
	base, _, err := l.baseline(tq)
	if err != nil {
		return nil, err
	}
	var reqs []reqTrace
	for i, q := range tq {
		res.attempted++
		rt, err := l.traceQuery(tr, i, q.sid, q.lo, q.hi)
		if err != nil {
			res.failed++
			continue
		}
		if bad := verify(in.base[q.sid], q.lo, q.hi, rt.matches, func(sid int) (set.Set, bool) {
			if sid < len(in.base) {
				return in.base[sid], true
			}
			k, ok := out.inserted[sid]
			return in.stream[k], ok
		}); bad != "" {
			res.failed++
			res.mismatch("replayed query %d (sid %d, [%g, %g]): %s", i, q.sid, q.lo, q.hi, bad)
		}
		reqs = append(reqs, rt)
	}
	if len(reqs) < exactPrefix {
		return nil, fmt.Errorf("only %d replayed queries succeeded", len(reqs))
	}

	if err := replayWAL(tr, env.dir, out.writes, &wt); err != nil {
		return nil, fmt.Errorf("wal replay: %w", err)
	}
	if err := ix.Close(); err != nil {
		return nil, err
	}
	var inserts []set.Set
	for _, o := range in.ops {
		if o.kind == opInsert {
			inserts = append(inserts, in.stream[o.ins])
		}
	}
	if err := l.replayInserts(tr, inserts, &wt); err != nil {
		return nil, fmt.Errorf("insert replay: %w", err)
	}

	hitRate := ratio(float64(out.cacheHits), float64(out.cacheHits+out.cacheMisses))
	layerReport(res, tr, reqs, base, bt, wt, planRuns, hitRate, quantile(out.lateness, 0.99))
	churnNotes(res, setupTimes{wall: []float64{setup.Seconds()}}, t, out)
	if err := tr.write(env.trace); err != nil {
		return nil, err
	}
	res.note("traceFile", env.trace)
	return res, nil
}

// planSummary renders the filter-index layout compactly.
func planSummary(p ssr.PlanSummary) []string {
	var out []string
	for _, fi := range p.FilterIndexes {
		out = append(out, fmt.Sprintf("%s@%.3f l=%d r=%d", fi.Kind, fi.Point, fi.Tables, fi.SampledBits))
	}
	return out
}
