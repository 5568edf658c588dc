package main

import (
	"hash/fnv"
	"math"
	"strconv"

	ssr "repro"
	"repro/internal/set"
)

// verify re-checks one answer: every match must name a known set, carry
// its exact Jaccard similarity with the query, lie in [lo, hi], and the
// list must be in the index's total order (similarity descending, sid
// ascending) without repeats. It returns "" or what was wrong.
func verify(q set.Set, lo, hi float64, ms []ssr.Match, lookup func(sid int) (set.Set, bool)) string {
	seen := make(map[int]bool, len(ms))
	for i, m := range ms {
		s, ok := lookup(m.SID)
		if !ok {
			return "unknown sid " + strconv.Itoa(m.SID)
		}
		if seen[m.SID] {
			return "repeated sid " + strconv.Itoa(m.SID)
		}
		seen[m.SID] = true
		exact := q.Jaccard(s)
		if math.Abs(exact-m.Similarity) > 1e-12 {
			return "sid " + strconv.Itoa(m.SID) + " similarity " + ftoa(m.Similarity) + " != exact " + ftoa(exact)
		}
		if exact < lo || exact > hi {
			return "sid " + strconv.Itoa(m.SID) + " similarity " + ftoa(exact) + " outside [" + ftoa(lo) + ", " + ftoa(hi) + "]"
		}
		if i > 0 {
			p := ms[i-1]
			if p.Similarity < m.Similarity || (p.Similarity == m.Similarity && p.SID > m.SID) {
				return "matches out of order at " + strconv.Itoa(i)
			}
		}
	}
	return ""
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// truth counts the sets whose exact similarity with q lies in [lo, hi] —
// the brute-force oracle recall is measured against.
func truth(q set.Set, lo, hi float64, live []set.Set) int {
	n := 0
	for _, s := range live {
		if sim := q.Jaccard(s); sim >= lo && sim <= hi {
			n++
		}
	}
	return n
}

// checksum folds answers into one FNV-64a digest: equal digests mean
// byte-identical (sid, similarity) lists for the same query prefix.
type checksum struct{ h uint64 }

func newChecksum() *checksum { return &checksum{h: fnv.New64a().Sum64()} }

func (c *checksum) add(query int, ms []ssr.Match) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(c.h)
	put(uint64(query))
	for _, m := range ms {
		put(uint64(m.SID))
		put(math.Float64bits(m.Similarity))
	}
	c.h = h.Sum64()
}

func (c *checksum) String() string { return strconv.FormatUint(c.h, 16) }
