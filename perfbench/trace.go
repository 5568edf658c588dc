package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	ssr "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/minhash"
	"repro/internal/optimize"
	"repro/internal/plan"
	"repro/internal/recovery"
	"repro/internal/set"
	"repro/internal/storage"
	"repro/internal/wal"
)

// span is one traced interval. Spans of one request share Req; Parent is
// -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out once, at the end.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// record adds a span whose bounds were captured elsewhere.
func (t *tracer) record(name string, req, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers reaches each layer of one index through its public functions.
type layers struct {
	ix   *ssr.Index
	eng  *engine.Engine
	srv  http.Handler
	sets []set.Set // the index's own sets by sid
}

func newLayers(ix *ssr.Index, srv http.Handler) *layers {
	return &layers{ix: ix, eng: ix.Internal(), srv: srv, sets: ix.Sets()}
}

// reqTrace is one traced query, layer by layer.
type reqTrace struct {
	engine, sign, probe, fetch, verify, slowestShard, gather time.Duration
	decide, server, direct                                   time.Duration
	indexPages, fetchPages, candidates, results              int
	evals, inRange, respBytes                                int
	shardsQueried, shardsPruned                              int
	matches                                                  []ssr.Match
}

// traceQuery runs one query through the engine and then replays it layer
// by layer: sign, and per shard the presigned core query, the filter
// probe, the candidate fetches and the Jaccard verification; then the
// gather merge, the planner's decision, and the same request through the
// HTTP handler and directly.
func (l *layers) traceQuery(tr *tracer, req, sid int, lo, hi float64) (reqTrace, error) {
	var rt reqTrace
	q := l.sets[sid]
	root := tr.begin("request", req, -1)
	defer tr.end(root)

	id := tr.begin("engine.query", req, root)
	m, st, err := l.eng.QueryWithOptions(q, lo, hi, core.QueryOptions{})
	rt.engine = tr.end(id)
	if err != nil {
		return rt, err
	}
	for _, x := range m {
		rt.matches = append(rt.matches, ssr.Match{SID: int(x.SID), Similarity: x.Similarity})
	}
	rt.indexPages = int(st.IndexIO.Rand() + st.IndexIO.Seq())
	rt.fetchPages = int(st.FetchIO.Rand() + st.FetchIO.Seq())
	rt.candidates, rt.results = st.Candidates, st.Results
	rt.shardsQueried, rt.shardsPruned = st.ShardsQueried, st.ShardsPruned
	rt.gather = st.Gather

	id = tr.begin("embed.sign", req, root)
	sig := l.eng.Embedder().Sign(q)
	rt.sign = tr.end(id)

	var union []core.Match
	for si := 0; si < l.eng.NumShards(); si++ {
		c := l.eng.ShardCore(si)
		id = tr.begin("core.query_presigned", req, root)
		sm, _, err := c.QueryPresigned(q, sig, lo, hi, core.QueryOptions{})
		if d := tr.end(id); d > rt.slowestShard {
			rt.slowestShard = d
		}
		if err != nil {
			return rt, err
		}
		union = append(union, sm...)

		var qs core.QueryStats
		id = tr.begin("filter.probe", req, root)
		cands, err := c.Candidates(q, lo, hi, &qs)
		rt.probe += tr.end(id) - rt.sign // Candidates signs the query itself
		if err != nil {
			return rt, err
		}

		store := c.Store()
		fetched := make([]set.Set, 0, len(cands))
		id = tr.begin("storage.fetch", req, root)
		for _, cand := range cands {
			s, err := store.Fetch(cand, nil)
			if err != nil {
				tr.end(id)
				return rt, err
			}
			fetched = append(fetched, s)
		}
		rt.fetch += tr.end(id)

		id = tr.begin("set.verify", req, root)
		for _, s := range fetched {
			if sim := q.Jaccard(s); sim >= lo && sim <= hi {
				rt.inRange++
			}
		}
		rt.verify += tr.end(id)
		rt.evals += len(fetched)
	}

	// The gather's merge: on a sharded engine Stats.GatherTime times it
	// inside the engine; a single-shard engine skips it, and the replay of
	// the call it would make stands in.
	id = tr.begin("engine.gather", req, root)
	core.SortMatches(union)
	if d := tr.end(id); l.eng.NumShards() == 1 {
		rt.gather = d
	}

	id = tr.begin("plan.decide", req, root)
	l.decide(lo, hi)
	rt.decide = tr.end(id)

	body := `{"sid":` + strconv.Itoa(sid) + `,"lo":` + ftoa(lo) + `,"hi":` + ftoa(hi) + `}`
	rec := httptest.NewRecorder()
	httpReq := httptest.NewRequest(http.MethodPost, "/query/sid", strings.NewReader(body))
	id = tr.begin("server.serve", req, root)
	l.srv.ServeHTTP(rec, httpReq)
	rt.server = tr.end(id)
	if rec.Code != http.StatusOK {
		return rt, fmt.Errorf("/query/sid answered %d: %s", rec.Code, rec.Body.String())
	}
	rt.respBytes = rec.Body.Len()

	id = tr.begin("ssr.query_sid", req, root)
	_, _, err = l.ix.QuerySID(sid, lo, hi)
	rt.direct = tr.end(id)
	return rt, err
}

// decide prices the range with the planner, assembling its inputs from
// the public core accessors as the engine does on a plan-cache miss.
func (l *layers) decide(lo, hi float64) plan.Decision {
	c0 := l.eng.ShardCore(0)
	hist := l.eng.Distribution()
	if tk := l.eng.Tracker(); tk != nil {
		if sk := tk.Sketch(); sk != nil && sk.Total() > 0 {
			hist = sk
		}
	}
	shards := make([]plan.ShardInput, l.eng.NumShards())
	live := 0
	for si := range shards {
		n, pages, pps := l.eng.ShardCore(si).ScanCostInputs()
		shards[si] = plan.ShardInput{Live: n, ScanPages: pages, PagesPerSet: pps}
		live += n
	}
	frac, ok := c0.CaptureFraction(hist, lo, hi)
	return plan.Decide(plan.Inputs{
		Predicted:      frac * float64(max(live-1, 0)),
		NoEstimate:     !ok,
		ProbeTables:    c0.ProbeTables(lo, hi),
		Shards:         shards,
		Model:          storage.DefaultCostModel(),
		Width:          hi - lo,
		Eps95:          c0.Eps95(),
		SigBytesPerSet: c0.SignatureBytesPerSet(),
		PageBytes:      c0.BuildOptions().PageSize,
	})
}

// buildTimes is the build pipeline replayed stage by stage.
type buildTimes struct {
	sign, estimate, plan, fill time.Duration
	samePlan                   bool
}

// replayBuild re-runs the index's build over the same sets, timing each
// stage: signing, the D_S estimate, one optimizer run on the index's own
// histogram, and the table fill per shard with plan, distribution and
// signatures supplied (summed over shards).
func (l *layers) replayBuild(tr *tracer) (buildTimes, error) {
	var bt buildTimes
	c0 := l.eng.ShardCore(0)
	opt := c0.BuildOptions()
	opt.Distribution, opt.PlanOverride, opt.PrecomputedSignatures = nil, nil, nil
	root := tr.begin("build", -1, -1)
	defer tr.end(root)

	id := tr.begin("embed.sign_collection", -1, root)
	sigs := core.SignCollection(l.eng.Embedder(), l.sets, opt.Workers)
	bt.sign = tr.end(id)

	id = tr.begin("simdist.estimate", -1, root)
	hist, err := core.EstimateDistribution(l.sets, sigs, opt)
	bt.estimate = tr.end(id)
	if err != nil {
		return bt, err
	}

	popt := opt.Plan
	if popt.SignatureK == 0 {
		popt.SignatureK = l.eng.Embedder().K()
	}
	id = tr.begin("optimize.build_plan", -1, root)
	p, err := optimize.BuildPlan(l.eng.Distribution(), popt)
	bt.plan = tr.end(id)
	if err != nil {
		return bt, err
	}
	bt.samePlan = fmt.Sprint(p.Cuts, p.FIs) == fmt.Sprint(c0.Plan().Cuts, c0.Plan().FIs)

	parts := make([][]set.Set, l.eng.NumShards())
	psigs := make([][]minhash.Signature, l.eng.NumShards())
	for g, s := range l.sets {
		si := l.eng.ShardOf(uint32(g))
		parts[si] = append(parts[si], s)
		psigs[si] = append(psigs[si], sigs[g])
	}
	for si := range parts {
		o := opt
		o.Distribution, o.PlanOverride, o.PrecomputedSignatures = hist, &p, psigs[si]
		id = tr.begin("core.fill", -1, root)
		_, err := core.Build(parts[si], o)
		bt.fill += tr.end(id)
		if err != nil {
			return bt, err
		}
	}
	return bt, nil
}

// writeTimes is the write path replayed layer by layer.
type writeTimes struct {
	checkpoint time.Duration
	appendSync []float64 // µs per record
	walBytes   int
	insert     []float64 // µs per engine insert
}

// replayWAL appends the records to a scratch log under the always-sync
// policy, timing Append plus Sync per record.
func replayWAL(tr *tracer, dir string, recs []wal.Record, wt *writeTimes) error {
	w, err := wal.OpenWriter(filepath.Join(dir, "replay.wal"), 0, wal.SyncAlways, 0, 0)
	if err != nil {
		return err
	}
	for i, r := range recs {
		id := tr.begin("wal.append_sync", i, -1)
		err := w.Append(r)
		if err == nil {
			err = w.Sync()
		}
		wt.appendSync = append(wt.appendSync, us(tr.end(id)))
		if err != nil {
			w.Close()
			return err
		}
	}
	wt.walBytes = walBytes(recs)
	return w.Close()
}

// replayInserts inserts the sets into the in-memory engine.
func (l *layers) replayInserts(tr *tracer, sets []set.Set, wt *writeTimes) error {
	for i, s := range sets {
		id := tr.begin("engine.insert", i, -1)
		_, err := l.eng.Insert(s)
		wt.insert = append(wt.insert, us(tr.end(id)))
		if err != nil {
			return err
		}
	}
	return nil
}

// checkpointVia times one checkpoint of an in-memory index through the
// recovery layer, with the index snapshot as its save hook.
func checkpointVia(tr *tracer, dir string, ix *ssr.Index) (time.Duration, error) {
	refuse := errors.New("scratch log holds no state")
	lg, _, err := recovery.Open(recovery.Options{Dir: dir, Sync: wal.SyncAlways}, recovery.Hooks{
		Load:  func(io.Reader) error { return refuse },
		Apply: func(wal.Record) error { return refuse },
		Save:  ix.Save,
	})
	if err != nil {
		return 0, err
	}
	id := tr.begin("recovery.checkpoint", -1, -1)
	err = lg.Checkpoint()
	d := tr.end(id)
	return d, errors.Join(err, lg.Close())
}

// baseline times the engine calls of the first queries with no spans and
// no replay around them, for the tracing overhead, and the closed loop's
// turnaround between one call returning and the next being issued.
func (l *layers) baseline(qs []tracedQuery) (lat, gaps []float64, err error) {
	last := time.Time{}
	for _, q := range qs {
		t0 := time.Now()
		if !last.IsZero() {
			gaps = append(gaps, ms(t0.Sub(last)))
		}
		_, _, err := l.eng.QueryWithOptions(l.sets[q.sid], q.lo, q.hi, core.QueryOptions{})
		last = time.Now()
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, ms(last.Sub(t0)))
	}
	return lat, gaps, nil
}

// tracedQuery is one query the traced run replays.
type tracedQuery struct {
	sid    int
	lo, hi float64
}

// exactPrefix is how many traced queries the exact work counts cover; a
// traced run always completes at least this many.
const exactPrefix = 50

// layerReport turns traced queries and replays into the per-layer
// metrics, the exact-count block, stage coverage and tracing overhead.
func layerReport(res *result, tr *tracer, reqs []reqTrace, base []float64, bt buildTimes, wt writeTimes, planRuns int64, hitRate, lateP99 float64) {
	var sign, probe, fetch, verify, scatter, decide, overhead, engineLat []float64
	var gather, indexPages, fetchPages, cands, evals []float64
	var sumCands, sumResults, queried, pruned, respBytes float64
	var covered, wall time.Duration
	replayMismatch := 0
	for _, r := range reqs {
		sign = append(sign, us(r.sign))
		probe = append(probe, ms(r.probe))
		fetch = append(fetch, ms(r.fetch))
		verify = append(verify, ms(r.verify))
		scatter = append(scatter, ms(r.engine-r.slowestShard))
		gather = append(gather, ms(r.gather))
		decide = append(decide, us(r.decide))
		overhead = append(overhead, us(r.server-r.direct))
		engineLat = append(engineLat, ms(r.engine))
		indexPages = append(indexPages, float64(r.indexPages))
		fetchPages = append(fetchPages, float64(r.fetchPages))
		cands = append(cands, float64(r.candidates))
		evals = append(evals, float64(r.evals))
		sumCands += float64(r.candidates)
		sumResults += float64(r.results)
		queried += float64(r.shardsQueried)
		pruned += float64(r.shardsPruned)
		respBytes += float64(r.respBytes)
		engineSelf := max(r.engine-r.sign-r.slowestShard, 0)
		covered += r.sign + r.probe + r.fetch + r.verify + engineSelf
		wall += r.engine
		if r.inRange != len(r.matches) {
			replayMismatch++
		}
	}
	res.set("embed.sign_us", "us", median(sign))
	res.set("embed.sign_collection_s", "s", bt.sign.Seconds())
	res.set("simdist.estimate_s", "s", bt.estimate.Seconds())
	res.set("optimize.build_plan_s", "s", bt.plan.Seconds())
	res.set("optimize.plan_runs", "count", float64(planRuns))
	res.set("core.fill_s", "s", bt.fill.Seconds())
	res.set("filter.probe_ms", "ms", median(probe))
	res.set("filter.index_pages", "count", mean(indexPages))
	res.set("filter.candidates", "count", mean(cands))
	res.set("filter.precision", "ratio", ratio(sumResults, sumCands))
	res.set("storage.fetch_ms", "ms", median(fetch))
	res.set("storage.fetch_pages", "count", mean(fetchPages))
	res.set("set.verify_ms", "ms", median(verify))
	res.set("set.jaccard_evals", "count", mean(evals))
	res.set("engine.scatter_ms", "ms", median(scatter))
	res.set("engine.gather_ms", "ms", mean(gather))
	res.set("engine.shards_pruned_frac", "ratio", ratio(pruned, queried+pruned))
	res.set("engine.insert_us", "us", median(wt.insert))
	res.set("plan.decide_us", "us", median(decide))
	res.set("plan.result_hit_rate", "ratio", hitRate)
	res.set("server.overhead_us", "us", median(overhead))
	res.set("server.response_bytes", "bytes", respBytes/float64(len(reqs)))
	res.set("wal.append_sync_us", "us", median(wt.appendSync))
	res.set("wal.bytes_per_write", "bytes", ratio(float64(wt.walBytes), float64(len(wt.appendSync))))
	res.set("recovery.checkpoint_s", "s", wt.checkpoint.Seconds())
	res.set("loadgen.late_ms_p99", "ms", lateP99)

	exact := map[string]int{}
	for _, r := range reqs[:exactPrefix] {
		exact["indexPages"] += r.indexPages
		exact["fetchPages"] += r.fetchPages
		exact["candidates"] += r.candidates
		exact["jaccardEvals"] += r.evals
		exact["results"] += r.results
	}
	exact["queries"] = exactPrefix
	exact["planRunsPerBuild"] = int(planRuns)
	exact["walRecords"] = len(wt.appendSync)
	exact["walBytes"] = wt.walBytes
	res.note("counts", exact)

	share := ratio(float64(covered), float64(wall))
	res.note("stageCoverage", map[string]any{"share": share, "flagged": share < 0.9})
	if share < 0.9 {
		fmt.Fprintf(os.Stderr, "perfbench: stage coverage %.2f < 0.9: a layer is missing from the replay\n", share)
	}
	n := min(len(base), len(engineLat))
	res.note("tracingOverhead", map[string]any{
		"queries":       n,
		"untracedP50Ms": median(base[:n]),
		"tracedP50Ms":   median(engineLat[:n]),
		"overheadFrac":  ratio(median(engineLat[:n]), median(base[:n])) - 1,
	})
	self := map[string]float64{}
	for name, d := range tr.selfTimes() {
		self[name] = d.Seconds()
	}
	res.note("selfSeconds", self)
	res.note("tracedQueries", len(reqs))
	res.note("replayMismatches", replayMismatch)
	res.note("replayPlanIdentical", bt.samePlan)
	res.note("spans", len(tr.spans))
}
