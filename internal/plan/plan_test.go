package plan

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// in1 builds single-shard inputs around the default cost model.
func in1(pred float64, live int, scanPages int64, pps float64, tables int) Inputs {
	return Inputs{
		Predicted:   pred,
		ProbeTables: tables,
		Shards:      []ShardInput{{Live: live, ScanPages: scanPages, PagesPerSet: pps}},
		Model:       storage.DefaultCostModel(),
	}
}

func TestDecideFIProbeWhenSelective(t *testing.T) {
	// 10 predicted candidates against a 10k-page heap: random probes win.
	d := Decide(in1(10, 1000, 10000, 2, 4))
	if d.Kind != FIProbe {
		t.Fatalf("kind = %v, want fi-probe (costs %+v)", d.Kind, d.Costs)
	}
	if d.PerShard == nil || d.PerShard[0] != FIProbe {
		t.Fatalf("per-shard = %v, want [fi-probe]", d.PerShard)
	}
	if d.Costs.FIProbe >= d.Costs.DirectScan {
		t.Fatalf("fi cost %v not below scan cost %v", d.Costs.FIProbe, d.Costs.DirectScan)
	}
}

func TestDecideDirectScanWhenTiny(t *testing.T) {
	// A 5-page heap with half the collection predicted as candidates:
	// one sequential sweep beats ~54 random reads.
	d := Decide(in1(50, 100, 5, 1, 4))
	if d.Kind != DirectScan {
		t.Fatalf("kind = %v, want direct-scan (costs %+v)", d.Kind, d.Costs)
	}
	if d.Costs.DirectScan >= d.Costs.FIProbe {
		t.Fatalf("scan cost %v not below fi cost %v", d.Costs.DirectScan, d.Costs.FIProbe)
	}
}

func TestDecideScreenOnlyGates(t *testing.T) {
	// Expensive exact plans, wide range: screen-only wins, but only when
	// the caller opted in AND the width clears the confidence gate.
	in := in1(100, 1000, 100000, 4, 4)
	in.Width = 0.5
	in.Eps95 = 0.05
	in.AllowApproximate = true
	if d := Decide(in); d.Kind != ScreenOnly {
		t.Fatalf("kind = %v, want screen-only (costs %+v)", d.Kind, d.Costs)
	}
	noOptIn := in
	noOptIn.AllowApproximate = false
	if d := Decide(noOptIn); d.Kind == ScreenOnly {
		t.Fatal("screen-only chosen without AllowApproximate")
	}
	narrow := in
	narrow.Width = 0.1 // below 4×eps95
	if d := Decide(narrow); d.Kind == ScreenOnly {
		t.Fatalf("screen-only chosen for narrow range (width %g, eps %g)", narrow.Width, narrow.Eps95)
	}
}

func TestDecideMixedPerShard(t *testing.T) {
	// Shard 0 is a 2-page stub (scan wins); shard 1 is big and selective
	// (probe wins) — the decision must split per shard.
	in := Inputs{
		Predicted:   20,
		ProbeTables: 4,
		Shards: []ShardInput{
			{Live: 10, ScanPages: 2, PagesPerSet: 1},
			{Live: 10000, ScanPages: 50000, PagesPerSet: 2},
		},
		Model: storage.DefaultCostModel(),
	}
	d := Decide(in)
	if d.Kind != Mixed {
		t.Fatalf("kind = %v, want mixed (costs %+v)", d.Kind, d.Costs)
	}
	if d.PerShard[0] != DirectScan || d.PerShard[1] != FIProbe {
		t.Fatalf("per-shard = %v, want [direct-scan fi-probe]", d.PerShard)
	}
}

func TestDecideNoEstimateFallsBack(t *testing.T) {
	in := in1(0, 100, 5, 1, 4)
	in.NoEstimate = true
	if d := Decide(in); d.Kind != FIProbe || d.PerShard != nil {
		t.Fatalf("no-estimate decision = %+v, want plain fi-probe", d)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		FIProbe: "fi-probe", DirectScan: "direct-scan",
		ScreenOnly: "screen-only", Mixed: "mixed", Kind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func key(sid uint64) ResultKey {
	return ResultKey{Elems: []uint64{sid, sid + 1}, Lo: 0.5, Hi: 1.0}
}

func TestResultCacheRoundTripAndLRU(t *testing.T) {
	c := NewResultCache(2)
	tok := Token{Gen: 1, Muts: []uint64{0, 0}}
	val := CachedResult{Matches: []core.Match{{SID: 3, Similarity: 0.9}}, EnclosedLo: 0.5, EnclosedHi: 1.0}
	c.Put(key(1), tok, val)
	got, ok := c.Get(key(1), tok)
	if !ok || len(got.Matches) != 1 || got.Matches[0].SID != 3 {
		t.Fatalf("Get = %+v, %v; want the stored result", got, ok)
	}
	// Returned matches are a copy: mutating them must not poison the cache.
	got.Matches[0].SID = 99
	if again, _ := c.Get(key(1), tok); again.Matches[0].SID != 3 {
		t.Fatal("cached matches aliased to a Get result")
	}
	// LRU: touch 1, insert 2 and 3 — 1 stays (recently used), 2 evicts.
	c.Put(key(2), tok, val)
	if _, ok := c.Get(key(1), tok); !ok {
		t.Fatal("entry 1 missing before overflow")
	}
	c.Put(key(3), tok, val)
	if _, ok := c.Get(key(2), tok); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := c.Get(key(1), tok); !ok {
		t.Fatal("LRU evicted the recently-used entry")
	}
}

func TestResultCacheInvalidation(t *testing.T) {
	c := NewResultCache(8)
	tok := Token{Gen: 1, Muts: []uint64{5, 7}}
	c.Put(key(1), tok, CachedResult{})
	for _, stale := range []Token{
		{Gen: 2, Muts: []uint64{5, 7}},    // retune bumped the generation
		{Gen: 1, Muts: []uint64{6, 7}},    // an insert landed on shard 0
		{Gen: 1, Muts: []uint64{5, 7, 0}}, // topology changed
	} {
		if _, ok := c.Get(key(1), stale); ok {
			t.Fatalf("stale token %+v served a cached result", stale)
		}
		c.Put(key(1), tok, CachedResult{}) // re-seed; stale Get evicts
	}
	if _, ok := c.Get(key(1), tok); !ok {
		t.Fatal("fresh token missed after re-seed")
	}
}

func TestResultCacheKeyMismatch(t *testing.T) {
	c := NewResultCache(4)
	tok := Token{Gen: 1}
	c.Put(key(1), tok, CachedResult{})
	other := key(1)
	other.Hi = 0.9
	if _, ok := c.Get(other, tok); ok {
		t.Fatal("different range served the cached result")
	}
	screened := key(1)
	screened.Flags = 1
	if _, ok := c.Get(screened, tok); ok {
		t.Fatal("different flags served the cached result")
	}
}
