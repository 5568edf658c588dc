// Command perfbench is the repository benchmark: it generates one seeded
// workload, drives it through the index's public API in this process,
// checks every answer, and prints the metrics BENCHMARK.json declares.
//
//	perfbench --workload paper-ranges --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs the same workload again with spans around the calls into each
// layer and reports the per-layer metrics instead. The last line of
// standard output is the result object; the line before it is a report
// with provenance, exact work counts and validity flags. A wrong answer
// makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Index configuration shared by every workload.
const (
	minHashes    = 64
	recallTarget = 0.9
	budget       = 500
	indexSeed    = 1
	// setupReps is how many times a run sets the index up; setup_s is the
	// median.
	setupReps = 3
	// evalQueries is the fixed evaluation prefix every closed-loop run
	// completes: recall, simulated I/O, the answer checksum and the work
	// counts are taken over it, so they depend on the seed alone.
	evalQueries = 200
)

// spec describes one workload.
type spec struct {
	name string
	// shards is the index's shard count.
	shards int
	// narrow selects shardbench's narrow high-similarity ranges instead of
	// the paper's independent uniform bounds (closed-loop workloads).
	narrow bool
	// churn selects the open-loop durable serving workload.
	churn bool
	// limit is the latency limit behind slo_ok_frac.
	limit time.Duration
}

var specs = map[string]spec{
	"paper-ranges":   {name: "paper-ranges", shards: 1, limit: 150 * time.Millisecond},
	"narrow-sharded": {name: "narrow-sharded", shards: 8, narrow: true, limit: 200 * time.Millisecond},
	"churn-serve":    {name: "churn-serve", shards: 4, churn: true, limit: 250 * time.Millisecond},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run produces.
type result struct {
	attempted int
	// failed counts operations that errored or answered wrongly.
	failed int
	// mismatches holds the first few wrong answers, for the report.
	mismatches []string
	// wrong counts every wrong answer (a failed operation that did return
	// is a mismatch; one that errored is not).
	wrong   int
	metrics map[string]metric
	report  map[string]any
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(k string, v any) {
	if r.report == nil {
		r.report = map[string]any{}
	}
	r.report[k] = v
}

// mismatch records one wrong answer.
func (r *result) mismatch(format string, args ...any) {
	r.wrong++
	if len(r.mismatches) < 10 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// runEnv is the run's scratch space inside the checkout.
type runEnv struct {
	seed    int64
	seconds time.Duration
	dir     string
	trace   string
}

// started is the process start, for progress lines on standard error.
var started = time.Now()

// logf writes one progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-ranges, narrow-sharded or churn-serve")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics, 0 the end-to-end ones")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", sp.name, *seed, os.Getpid())),
		trace:   filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", sp.name, *seed)),
	}
	if err := os.MkdirAll(env.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.dir)

	var res *result
	switch {
	case sp.churn && *trace == 1:
		res, err = traceChurn(sp, env)
	case sp.churn:
		res, err = runChurn(sp, env)
	case *trace == 1:
		res, err = traceClosed(sp, env)
	default:
		res, err = runClosed(sp, env)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, err)
		return 1
	}
	want := decl.endToEnd
	if *trace == 1 {
		want = decl.perLayer
	}
	if err := checkDeclared(res.metrics, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.note("workload", sp.name)
	res.note("trace", *trace)
	res.note("provenance", provenance(sp, env))
	res.note("mismatches", res.mismatches)
	correct := res.wrong == 0
	if err := printJSON(map[string]any{"report": res.report}); err != nil {
		return 1
	}
	if err := printJSON(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	}); err != nil {
		return 1
	}
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers, first: %v\n", res.wrong, res.mismatches)
		return 1
	}
	return 0
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// declared is the metric list BENCHMARK.json fixes.
type declared struct {
	endToEnd, perLayer map[string]string // name → unit
}

func loadDeclared(path string) (declared, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return declared{}, fmt.Errorf("reading %s (run from the repository root): %w", path, err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return declared{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range doc.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	return d, nil
}

// checkDeclared fails unless the run produced exactly the declared metrics
// with their declared units.
func checkDeclared(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}
