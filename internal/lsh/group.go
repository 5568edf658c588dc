package lsh

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/hashtable"
	"repro/internal/storage"
)

// BitSource yields individual bits of an embedded Hamming vector. Both
// bitvec.Vector and the lazy signature view in package embed satisfy it.
type BitSource interface {
	Bit(pos int) byte
}

// Complement adapts a BitSource to its bitwise complement — the q̄ view of
// Theorem 2 used by Dissimilarity Filter Index queries.
type Complement struct {
	Src BitSource
}

// Bit returns the flipped bit at pos.
func (c Complement) Bit(pos int) byte { return 1 - c.Src.Bit(pos) }

// GroupOptions configures a Group.
type GroupOptions struct {
	// Dim is the Hamming-space dimensionality D the samples draw from.
	Dim int
	// R is the number of bits sampled per table.
	R int
	// L is the number of tables.
	L int
	// Seed drives position sampling; the same seed reproduces the group.
	Seed int64
	// Rand, if non-nil, supplies position sampling directly and Seed is
	// ignored — the injection point for callers threading one random
	// stream through a pipeline. The rng is consumed during construction
	// and not retained; two rngs in the same state yield identical groups.
	Rand *rand.Rand
	// ExpectedEntries sizes each table's bucket directory.
	ExpectedEntries int
}

// Group is a family of L bit-sampling hash tables sharing a sampled-bit
// scheme: the data structure behind one filter index. Building inserts
// every vector into all L tables; a query probes one bucket per table and
// unions the results (the SimVector of Section 4.1).
type Group struct {
	positions [][]int // L × R sampled bit positions
	tables    []*hashtable.Table
	r, l      int
	dim       int
}

// NewGroup creates an empty group with freshly sampled bit positions.
// Positions are sampled uniformly with replacement across tables (each
// table independently samples r distinct positions).
func NewGroup(pager *storage.Pager, opt GroupOptions) (*Group, error) {
	if opt.Dim < 1 {
		return nil, fmt.Errorf("lsh: dimension must be >= 1, got %d", opt.Dim)
	}
	if opt.R < 1 || opt.R > opt.Dim {
		return nil, fmt.Errorf("lsh: r must be in [1,%d], got %d", opt.Dim, opt.R)
	}
	if opt.L < 1 {
		return nil, fmt.Errorf("lsh: l must be >= 1, got %d", opt.L)
	}
	rng := opt.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	g := &Group{
		positions: make([][]int, opt.L),
		tables:    make([]*hashtable.Table, opt.L),
		r:         opt.R,
		l:         opt.L,
		dim:       opt.Dim,
	}
	for i := range g.positions {
		g.positions[i] = samplePositions(rng, opt.Dim, opt.R)
		t, err := hashtable.New(pager, hashtable.Options{
			ExpectedEntries: opt.ExpectedEntries,
		})
		if err != nil {
			return nil, err
		}
		g.tables[i] = t
	}
	return g, nil
}

// samplePositions draws r distinct positions from [0, dim) and returns them
// sorted (order within a table is irrelevant to collisions; sorting makes
// key extraction cache-friendly and the group reproducible).
func samplePositions(rng *rand.Rand, dim, r int) []int {
	if r >= dim {
		all := make([]int, dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	seen := make(map[int]struct{}, r)
	out := make([]int, 0, r)
	for len(out) < r {
		p := rng.Intn(dim)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// R returns the bits sampled per table.
func (g *Group) R() int { return g.r }

// L returns the number of tables.
func (g *Group) L() int { return g.l }

// Positions returns the sampled positions of table i (not to be modified).
func (g *Group) Positions(i int) []int { return g.positions[i] }

// key folds the sampled bits of src under table i into a 64-bit key. For
// r <= 64 this is the exact sampled bit string; beyond that, consecutive
// 64-bit chunks are mixed together (a 2^-64 collision rate, far below the
// filter's intrinsic error).
func (g *Group) key(i int, src BitSource) uint64 {
	var key, chunk uint64
	nbits := 0
	for _, pos := range g.positions[i] {
		chunk = chunk<<1 | uint64(src.Bit(pos))
		nbits++
		if nbits == 64 {
			key = foldChunk(key, chunk)
			chunk, nbits = 0, 0
		}
	}
	if nbits > 0 {
		// Include the chunk length so trailing zeros are unambiguous.
		key = foldChunk(key, chunk|uint64(nbits)<<57)
	}
	return key
}

func foldChunk(acc, chunk uint64) uint64 {
	acc ^= chunk
	acc *= 0x9e3779b97f4a7c15
	acc ^= acc >> 29
	return acc
}

// AppendKeys appends the L per-table keys of src to dst — the exact keys
// Insert would store and a probe would look up, in table order. Exposed so
// callers that need the keys for their own bookkeeping (the shard-pruning
// occupancy summaries) derive them once instead of re-sampling bits.
func (g *Group) AppendKeys(src BitSource, dst []uint64) []uint64 {
	for i := 0; i < g.l; i++ {
		dst = append(dst, g.key(i, src))
	}
	return dst
}

// Insert adds sid to every table, keyed by the sampled bits of src.
func (g *Group) Insert(src BitSource, sid storage.SID) {
	for i := range g.tables {
		g.tables[i].Insert(g.key(i, src), sid)
	}
}

// InsertKeys is Insert with the per-table keys precomputed by AppendKeys:
// keys[i] goes into table i. len(keys) must equal L.
func (g *Group) InsertKeys(keys []uint64, sid storage.SID) {
	for i := range g.tables {
		g.tables[i].Insert(keys[i], sid)
	}
}

// Load bulk-fills the tables with the vectors each yields: the build-time
// equivalent of calling Insert on every (src, sid) in yield order, with
// identical bucket pages. each is called once per table and must yield the
// same sequence every time; src is only read during the yield, so callers
// may reuse one view.
func (g *Group) Load(each func(yield func(src BitSource, sid storage.SID))) {
	var keys []uint64
	var sids []storage.SID
	for i, t := range g.tables {
		keys = keys[:0]
		each(func(src BitSource, sid storage.SID) {
			keys = append(keys, g.key(i, src))
			if i == 0 {
				sids = append(sids, sid)
			}
		})
		t.Load(keys, sids)
	}
}

// Delete removes sid from every table, keyed by the sampled bits of src
// (the same vector it was inserted with). It returns the number of table
// entries removed (at most one per table).
func (g *Group) Delete(src BitSource, sid storage.SID) int {
	removed := 0
	for i := range g.tables {
		removed += g.tables[i].Delete(g.key(i, src), sid)
	}
	return removed
}

// DeleteKeys is Delete with the per-table keys precomputed by AppendKeys.
func (g *Group) DeleteKeys(keys []uint64, sid storage.SID) int {
	removed := 0
	for i := range g.tables {
		removed += g.tables[i].Delete(keys[i], sid)
	}
	return removed
}

// RangeKeys invokes fn(table, key) for every stored entry across all L
// tables — the bulk feed for occupancy summaries built after population.
func (g *Group) RangeKeys(fn func(table int, key uint64)) {
	for i, t := range g.tables {
		t.Range(func(key uint64, _ storage.SID) { fn(i, key) })
	}
}

// Query probes all L tables for src and returns the deduplicated union of
// bucket contents in ascending sid order — SimVector for this group's
// threshold. Page reads are charged to io (which may be nil).
func (g *Group) Query(src BitSource, io *storage.Counter) []storage.SID {
	return g.QueryAppend(src, io, nil, nil)
}

// QueryAppend is Query writing into dst's backing array: dst must be empty
// (length 0) but may carry capacity from a previous probe, which is reused
// instead of growing a fresh slice. seen is the union's bitset scratch
// (nil for a throwaway one). The returned slice aliases dst's backing
// array and is only valid until the next reuse.
func (g *Group) QueryAppend(src BitSource, io *storage.Counter, dst []storage.SID, seen *Seen) []storage.SID {
	raw := dst[:0:cap(dst)]
	for i := range g.tables {
		raw = g.tables[i].Probe(g.key(i, src), io, raw)
	}
	if seen == nil {
		seen = new(Seen)
	}
	return seen.union(raw)
}

// Seen is the union scratch of QueryAppend: a bitset over a window of
// sids that is all zero between calls. The zero value is ready to use; it
// grows to the widest sid window it is asked to hold.
type Seen struct {
	words []uint64
}

// maxSeenWords bounds the bitset a sparse union may grow (8 KiB): past it
// the union sorts unless the sids are dense enough to pay for the words.
const maxSeenWords = 1024

// union replaces sids, in place, with their distinct values in ascending
// order. Dense sids (the local sids of a core) pass through the bitset:
// set one bit each, then read the words back out, clearing them as they
// go. Sids too sparse for the bitset are sorted instead.
func (s *Seen) union(sids []storage.SID) []storage.SID {
	if len(sids) < 2 {
		return sids
	}
	lo, hi := sids[0], sids[0]
	for _, sid := range sids[1:] {
		lo, hi = min(lo, sid), max(hi, sid)
	}
	base := lo &^ 63
	span := int((hi-base)>>6) + 1
	if span > maxSeenWords && span > len(sids) {
		slices.Sort(sids)
		return slices.Compact(sids)
	}
	if span > len(s.words) {
		s.words = make([]uint64, span)
	}
	words := s.words[:span]
	for _, sid := range sids {
		off := sid - base
		words[off>>6] |= 1 << (off & 63)
	}
	out := sids[:0]
	for w, x := range words {
		if x == 0 {
			continue
		}
		words[w] = 0
		for x != 0 {
			out = append(out, base+storage.SID(w<<6|bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return out
}

// Entries returns the total number of stored (key, sid) pairs across tables.
func (g *Group) Entries() int {
	n := 0
	for _, t := range g.tables {
		n += t.Entries()
	}
	return n
}
