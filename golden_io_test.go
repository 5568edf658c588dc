package ssr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/filter"
)

// goldenIO is the exact simulated cost of the golden I/O query stream:
// page reads by filter probes (IndexIO) and by candidate fetches
// (FetchIO) under the paper's random/sequential model, the total
// candidate count, and a checksum over every answer.
type goldenIO struct {
	indexRand, indexSeq int64
	fetchRand, fetchSeq int64
	candidates          int
	answers             uint64
}

// goldenIOWant pins goldenIO per shard count. The counters are a pure
// function of the collection, the options and the query stream, so any
// change to probing, fetching or page layout that alters accounting shows
// up here as an exact mismatch.
var goldenIOWant = map[int]goldenIO{
	1: {indexRand: 14508, fetchRand: 26646, fetchSeq: 57670, candidates: 26646, answers: 2010581569372388585},
	4: {indexRand: 56640, fetchRand: 26646, fetchSeq: 57208, candidates: 26646, answers: 2010581569372388585},
}

// goldenIORanges spans all three Section 4.3 filter combinations. The
// golden plan has a single cut, its δ point near 0.003, so ranges below
// it probe dissimilarity indices only, ranges above it similarity indices
// only, and ranges across it combine both kinds.
var goldenIORanges = [][2]float64{
	{0, 0.002}, {0.001, 0.003}, {0.2, 0.5}, {0.5, 0.9}, {0.7, 1}, {0.9, 1}, {0, 0.3}, {0, 1},
}

// Section 4.3 case labels, as classified by goldenIOCases.
const (
	caseDissimilar = iota
	caseSimilar
	caseMixed
)

// goldenIOCases returns a classifier reporting which filter combination
// ix's query processor uses for a range enclosed by partition points
// [lo, hi].
func goldenIOCases(ix *Index) func(lo, hi float64) int {
	dfi, sfi := map[float64]bool{}, map[float64]bool{}
	for _, fi := range ix.Internal().FilterIndexes() {
		if fi.Kind == filter.Dissimilar {
			dfi[fi.Point] = true
		} else {
			sfi[fi.Point] = true
		}
	}
	return func(lo, hi float64) int {
		switch {
		case dfi[hi]:
			return caseDissimilar
		case sfi[lo]:
			return caseSimilar
		default:
			return caseMixed
		}
	}
}

// TestGoldenIOAccounting pins the exact simulated I/O of a fixed query
// stream over the golden-snapshot collection at 1 and 4 shards.
func TestGoldenIOAccounting(t *testing.T) {
	for _, shards := range []int{1, 4} {
		opt := goldenSnapshotOptions()
		opt.Shards = shards
		// Records of about 2 KiB span pages, so fetches also read
		// sequential continuation pages.
		opt.PayloadBytesPerElement = 200
		ix, err := Build(goldenSnapshotCollection(), opt)
		if err != nil {
			t.Fatalf("shards=%d: Build: %v", shards, err)
		}
		eng := ix.Internal()
		caseOf := goldenIOCases(ix)
		var got goldenIO
		var seen [3]bool
		h := fnv.New64a()
		var buf [8]byte
		for sid := 0; sid < ix.Len(); sid += 3 {
			q := ix.coll.sets[sid]
			for _, r := range goldenIORanges {
				matches, qs, err := eng.Query(q, r[0], r[1])
				if err != nil {
					t.Fatalf("shards=%d sid=%d range=%v: %v", shards, sid, r, err)
				}
				seen[caseOf(qs.EnclosedLo, qs.EnclosedHi)] = true
				got.indexRand += qs.IndexIO.Rand()
				got.indexSeq += qs.IndexIO.Seq()
				got.fetchRand += qs.FetchIO.Rand()
				got.fetchSeq += qs.FetchIO.Seq()
				got.candidates += qs.Candidates
				binary.LittleEndian.PutUint64(buf[:], uint64(len(matches)))
				h.Write(buf[:])
				for _, m := range matches {
					binary.LittleEndian.PutUint64(buf[:], uint64(m.SID))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.Similarity))
					h.Write(buf[:])
				}
			}
		}
		got.answers = h.Sum64()
		for c, ok := range seen {
			if !ok {
				t.Fatalf("shards=%d: query stream never exercised Section 4.3 case %d", shards, c)
			}
		}
		if want := goldenIOWant[shards]; got != want {
			t.Errorf("shards=%d: I/O accounting\n got %+v\nwant %+v", shards, got, want)
		}
	}
}
