// Per-shard summary sketches for sound scatter pruning.
//
// A sharded engine pays every shard's probe cost on every query even when
// most shards cannot possibly contribute. The Summary gives each shard a
// compact, lock-free digest of its live contents that the engine consults
// BEFORE taking the shard's read lock, skipping shards that provably
// produce an empty answer. Two independent mechanisms, both strict upper
// bounds (a skipped shard is never one that could have contributed, so
// results are byte-identical with pruning on or off):
//
//  1. Key occupancy. Results are a subset of verified candidates, and
//     candidates come only from filter-index bucket probes. The summary
//     keeps a refcount, hashed over (FI ordinal, table, stored key), of
//     every entry in the shard's filter tables. Because every shard runs
//     the identical plan with identical per-FI seeds (the engine's
//     determinism contract), a query's probe keys are the same in every
//     shard — so the engine derives them once and tests each shard's
//     refcounts. If every probe key of every positive-probe FI of the
//     Section 4.3 case analysis is unoccupied, the shard's candidate set
//     is empty and the shard is skipped. Hash collisions in the fixed-size
//     refcount array only inflate occupancy — they can suppress a skip,
//     never cause one, so collisions cost performance, not correctness.
//     (The emptiness test relies on exact-key probe semantics: a probe
//     returns only entries whose key equals the probe key, never others
//     that merely share its bucket.)
//
//  2. Set-size histogram. Exact Jaccard obeys J(q,s) <= min(|q|,|s|) /
//     max(|q|,|s|), so a refcounted histogram of live set sizes (log2
//     buckets) yields a true upper bound on any exact similarity the shard
//     can produce. If that bound is below the query's s1 — or below the
//     current global k-th-best similarity of a TopK scatter — the shard
//     cannot place a result and is skipped. This bound is on the EXACT
//     similarity of the verification step, independent of which candidates
//     the filters surface, so it composes with the one-sided filter
//     approximation without changing it.
//
// Concurrency. All counters are atomics. Mutations update the summary
// inside the core's exclusive write lock (Insert/Delete), but the engine
// READS the summary without any core lock. That is sound: a prune check
// racing a mutation may see the summary before or after that mutation's
// counts, which corresponds to serializing the query before or after the
// concurrent mutation — both legal outcomes. Any mutation that completed
// before the query began is visible (the atomic increments
// happened-before the mutator returned). The summary is plan-dependent
// state: it is rebuilt by core.Build on every load, recovery, and retune
// rebuild, and journal replay maintains it through Insert/Delete — so
// every plan generation's cores carry summaries consistent with their own
// FI structure, with no separate persistence format.
package core

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/minhash"
	"repro/internal/set"
)

// summarySlots sizes the occupancy refcount array (power of two). 32Ki
// slots × 4 bytes = 128KiB per shard: collisions stay rare for the
// per-shard table populations the optimizer produces, and a collision only
// weakens pruning.
const summarySlots = 1 << 15

// sizeBuckets spans bits.Len of any set length (uint64 elements → ≤ 64
// significant bits, plus bucket 0 for empty sets).
const sizeBuckets = 65

// noSizeBucket marks a sid with no recorded size (tombstoned at build).
const noSizeBucket = 0xFF

// Summary is one shard's pruning digest. Safe for concurrent use: readers
// need no lock; writers must already be serialized (they run under the
// owning core's write lock).
type Summary struct {
	occ   [summarySlots]atomic.Uint32
	sizes [sizeBuckets]atomic.Uint32
}

func newSummary() *Summary { return &Summary{} }

// slot hashes (fi, table, key) into the occupancy array. fi and table are
// folded in before finalization so the same stored key under different
// tables (or the same table position across FIs) lands independently.
func summarySlot(fi, table int, key uint64) int {
	h := key ^ (uint64(fi)*0x9E3779B97F4A7C15 + uint64(table)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB)
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return int(h & (summarySlots - 1))
}

// addKeys records one set's insert keys for FI ordinal fi (keys[i] is
// table i's key, as produced by filter.AppendInsertKeys).
func (s *Summary) addKeys(fi int, keys []uint64) {
	for t, k := range keys {
		s.occ[summarySlot(fi, t, k)].Add(1)
	}
}

// removeKeys reverses addKeys for a deleted set (same keys, same order).
func (s *Summary) removeKeys(fi int, keys []uint64) {
	for t, k := range keys {
		s.occ[summarySlot(fi, t, k)].Add(^uint32(0))
	}
}

// addStoredKey records one already-stored table entry (the bulk build path
// fed by filter.RangeStoredKeys).
func (s *Summary) addStoredKey(fi, table int, key uint64) {
	s.occ[summarySlot(fi, table, key)].Add(1)
}

// sizeBucket maps a set length to its histogram bucket.
func sizeBucket(n int) uint8 { return uint8(bits.Len(uint(n))) }

// addSize / removeSizeBucket maintain the live set-size histogram.
func (s *Summary) addSize(n int) uint8 {
	b := sizeBucket(n)
	s.sizes[b].Add(1)
	return b
}

func (s *Summary) removeSizeBucket(b uint8) {
	if b != noSizeBucket {
		s.sizes[b].Add(^uint32(0))
	}
}

// anyOccupied reports whether any of FI fi's probe keys has a live entry
// refcount (keys[i] probes table i).
func (s *Summary) anyOccupied(fi int, keys []uint64) bool {
	for t, k := range keys {
		if s.occ[summarySlot(fi, t, k)].Load() > 0 {
			return true
		}
	}
	return false
}

// Empty reports whether every positive-probe FI of the probe plan finds
// only unoccupied keys — in which case the shard's candidate set (a subset
// of the union of those FIs' probe vectors) is provably empty and the
// shard can be skipped with byte-identical results.
func (s *Summary) Empty(p *ShardProbe) bool {
	for i, fi := range p.fis {
		if s.anyOccupied(fi, p.keys[i]) {
			return false
		}
	}
	return true
}

// SizeUpperBound returns an upper bound on the exact Jaccard similarity
// between a query of qlen elements and ANY live set in the shard, from the
// size histogram alone: J(q,s) <= min(|q|,|s|)/max(|q|,|s|), maximized
// over occupied size buckets. An empty shard returns 0.
func (s *Summary) SizeUpperBound(qlen int) float64 {
	best := 0.0
	for b := 0; b < sizeBuckets; b++ {
		if s.sizes[b].Load() == 0 {
			continue
		}
		ub := sizeBoundFor(qlen, b)
		if ub > best {
			best = ub
			if best >= 1 {
				return 1
			}
		}
	}
	return best
}

// sizeBoundFor bounds J(q, s) for |q| = qlen against any |s| in bucket b
// (bucket b >= 1 holds sizes [2^(b-1), 2^b - 1]; bucket 0 holds empty
// sets, which share no element with anything).
func sizeBoundFor(qlen, b int) float64 {
	if b == 0 {
		if qlen == 0 {
			return 1 // both empty: never prune on this degenerate bucket
		}
		return 0
	}
	lo := uint64(1) << (b - 1)
	hi := uint64(1)<<b - 1
	q := uint64(qlen)
	switch {
	case q < lo:
		return float64(q) / float64(lo)
	case q > hi:
		return float64(hi) / float64(q)
	default:
		return 1
	}
}

// ShardProbe is the shard-independent part of a pruning decision for one
// query: the enclosure it resolved to, the query's cardinality, and the
// probe keys of every FI whose vector can contribute candidates under the
// Section 4.3 case analysis. Built once per query (plans and per-FI bit
// positions are identical across shards) and tested against each shard's
// Summary.
type ShardProbe struct {
	// Lo, Hi are the enclosing partition points (range probes only; zero
	// for TopK probes).
	Lo, Hi float64
	// QLen is the query set's cardinality, for SizeUpperBound.
	QLen int
	fis  []int
	keys [][]uint64
}

// BuildRangeProbe derives the pruning probe for the range [s1, s2] from a
// query signature. It reads only state that is immutable after Build
// (plan, FI structure, embedding), so no lock is taken. ok is false when
// the range is invalid or the plan has no usable FI for it — the shards
// must then run (and fail) identically rather than be pruned.
func (ix *Index) BuildRangeProbe(q set.Set, sig minhash.Signature, s1, s2 float64) (*ShardProbe, bool) {
	if s1 > s2 {
		return nil, false
	}
	src := ix.emb.Bits(sig)
	lo, hi := ix.enclose(s1, s2)
	p := &ShardProbe{Lo: lo, Hi: hi, QLen: q.Len()}
	add := func(ord int) {
		p.fis = append(p.fis, ord)
		p.keys = append(p.keys, ix.fis[ord].AppendProbeKeys(src, nil))
	}
	_, hiIsDFI := ix.dfis[hi]
	_, loIsSFI := ix.sfis[lo]
	switch {
	case hiIsDFI:
		// A = DissimVector(hi) \ DissimVector(lo) ⊆ DissimVector(hi).
		add(ix.dfiOrd[hi])
	case loIsSFI:
		// A = SimVector(lo) \ SimVector(hi) ⊆ SimVector(lo).
		add(ix.sfiOrd[lo])
	default:
		// Mixed case around the δ point: A ⊆ DissimVector(δ) ∪ SimVector(δ).
		dPoint, ok := ix.bothKindsPoint()
		if !ok {
			return nil, false
		}
		add(ix.dfiOrd[dPoint])
		add(ix.sfiOrd[dPoint])
	}
	return p, true
}

// BuildTopKProbe derives the pruning probe for a TopK walk: candidates can
// come from any SFI's vector or, as the final fallback, the δ-point DFI's.
// A probe with no FIs at all means the walk surfaces nothing — trivially
// empty, hence trivially skippable.
func (ix *Index) BuildTopKProbe(q set.Set, sig minhash.Signature) *ShardProbe {
	src := ix.emb.Bits(sig)
	p := &ShardProbe{QLen: q.Len()}
	points := make([]float64, 0, len(ix.sfiOrd))
	for point := range ix.sfiOrd {
		points = append(points, point)
	}
	sort.Float64s(points)
	for _, point := range points {
		ord := ix.sfiOrd[point]
		p.fis = append(p.fis, ord)
		p.keys = append(p.keys, ix.fis[ord].AppendProbeKeys(src, nil))
	}
	if dPoint, ok := ix.bothKindsPoint(); ok {
		ord := ix.dfiOrd[dPoint]
		p.fis = append(p.fis, ord)
		p.keys = append(p.keys, ix.fis[ord].AppendProbeKeys(src, nil))
	}
	return p
}

// Summary returns the shard's pruning digest. The pointer is immutable
// after Build; the digest's counters are atomics, so the engine reads it
// without taking the core lock.
func (ix *Index) Summary() *Summary { return ix.sum }
