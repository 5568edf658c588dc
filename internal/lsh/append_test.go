package lsh

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/storage"
)

// TestQueryAppendMatchesQuery checks the append variant returns the same
// deduplicated sid set as Query and actually reuses the supplied capacity.
func TestQueryAppendMatchesQuery(t *testing.T) {
	g := newTestGroup(t, 256, 8, 6)
	rng := rand.New(rand.NewSource(11))
	vecs := make([]BitSource, 50)
	for i := range vecs {
		v := randomVec(rng, 256)
		vecs[i] = v
		g.Insert(v, storage.SID(i))
	}

	var buf []storage.SID
	var seen Seen
	for i, q := range vecs {
		want := g.Query(q, nil)
		buf = g.QueryAppend(q, nil, buf[:0], &seen)
		if len(buf) != len(want) {
			t.Fatalf("query %d: %d vs %d sids", i, len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("query %d sid %d: %d vs %d", i, j, buf[j], want[j])
			}
		}
	}
	if cap(buf) == 0 {
		t.Fatal("append path never grew the shared buffer")
	}

	// After warm-up the shared buffer must satisfy probes without growing.
	grown := 0
	for _, q := range vecs {
		c := cap(buf)
		buf = g.QueryAppend(q, nil, buf[:0], &seen)
		if cap(buf) != c {
			grown++
		}
	}
	if grown != 0 {
		t.Fatalf("warm buffer reallocated %d times across %d probes", grown, len(vecs))
	}
}

// TestQueryAppendWordBoundaries checks the bitset union emits each sid once
// and in ascending order when the sids straddle 64-bit word boundaries, and
// that the scratch bitset is left all zero for the next query.
func TestQueryAppendWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randomVec(rng, 256)
	cases := [][]storage.SID{
		{0, 63, 64, 127, 128, 4095},
		{64, 65, 127},
		{63, 64},
		{^storage.SID(0) - 64, ^storage.SID(0) - 63, ^storage.SID(0)}, // max sid
		{0, 64, ^storage.SID(0)}, // too sparse for the bitset: sorted instead
	}
	var seen Seen
	var buf []storage.SID
	for _, sids := range cases {
		g := newTestGroup(t, 256, 8, 6)
		// Insert in descending order, each twice, so the raw probe output
		// is unsorted and full of duplicates.
		for i := len(sids) - 1; i >= 0; i-- {
			g.Insert(v, sids[i])
			g.Insert(v, sids[i])
		}
		buf = g.QueryAppend(v, nil, buf[:0], &seen)
		if !slices.Equal(buf, sids) {
			t.Errorf("QueryAppend = %v, want %v", buf, sids)
		}
		if i := slices.IndexFunc(seen.words, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("scratch word %d left set after sids %v", i, sids)
		}
	}
}

// TestSeenUnionMatchesSortDedupe compares the bitset union with sorting and
// deduplicating, over dense and sparse random sid multisets.
func TestSeenUnionMatchesSortDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var seen Seen
	for trial := 0; trial < 500; trial++ {
		span := []int{1, 64, 65, 1000, 1 << 20}[trial%5]
		base := storage.SID(rng.Intn(1 << 30))
		sids := make([]storage.SID, rng.Intn(300))
		for i := range sids {
			sids[i] = base + storage.SID(rng.Intn(span))
		}
		want := slices.Clone(sids)
		slices.Sort(want)
		want = slices.Compact(want)
		if got := seen.union(slices.Clone(sids)); !slices.Equal(got, want) {
			t.Fatalf("union(%v) = %v, want %v", sids, got, want)
		}
	}
}

// TestGroupLoadMatchesInsert checks a bulk-loaded group answers every
// query exactly as one filled by per-vector Inserts, page charges included.
func TestGroupLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := make([]bitvec.Vector, 40)
	for i := range base {
		base[i] = randomVec(rng, 256)
	}
	vecs := make([]BitSource, 600)
	for i := range vecs {
		vecs[i] = corrupt(rng, base[i%len(base)], rng.Intn(8))
	}
	mk := func() *Group {
		g, err := NewGroup(storage.NewPager(256), GroupOptions{Dim: 256, R: 6, L: 5, Seed: 5, ExpectedEntries: len(vecs)})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	inserted, loaded := mk(), mk()
	for i, v := range vecs {
		inserted.Insert(v, storage.SID(i))
	}
	loaded.Load(func(yield func(BitSource, storage.SID)) {
		for i, v := range vecs {
			yield(v, storage.SID(i))
		}
	})
	if loaded.Entries() != inserted.Entries() {
		t.Fatalf("Entries %d vs %d", loaded.Entries(), inserted.Entries())
	}
	for i, q := range vecs {
		var ioA, ioB storage.Counter
		a, b := inserted.Query(q, &ioA), loaded.Query(q, &ioB)
		if !slices.Equal(a, b) || ioA.Rand() != ioB.Rand() {
			t.Fatalf("query %d: %d sids/%d pages inserted vs %d sids/%d pages loaded", i, len(a), ioA.Rand(), len(b), ioB.Rand())
		}
	}
}
