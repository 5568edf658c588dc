// Package hashtable implements the paged bucket hash tables underlying the
// filter indices (Section 4.1).
//
// Each Similarity Filter Index repetition hashes an r-bit sample of every
// embedded vector into a table of buckets holding set identifiers; a query
// probes one bucket per repetition. Buckets are chains of fixed-size pages
// (the paper's sidcount entries per bucket, with enough buckets that
// overflows are rare), and every page visited during a probe is charged as
// one random page read — hash indices are exactly the "readily available"
// ORDBMS primitive the paper builds on.
//
// The page model prices I/O; it does not dictate CPU work. Each page keeps
// its entries sorted by key (equal keys in arrival order), so a probe
// binary-searches every page it is charged for and reads only the run of
// matching keys. The tail page of a chain, where Insert appends, is the one
// exception: behind its sorted prefix it holds an unsorted suffix of fewer
// than mergeEvery recent entries, which is merged into the prefix when it
// reaches mergeEvery entries and when the page fills. A probe therefore
// examines about ⌈log₂ perPage⌉ entries per page to find its run, fewer
// than mergeEvery more in a tail page's suffix, and its matches.
package hashtable

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/storage"
)

const noPage = ^uint32(0)

// entrySize is key (8 bytes) + sid (4 bytes).
const entrySize = 12

// pageHeader is next-page id (4 bytes) + entry count (2 bytes).
const pageHeader = 6

// maxPerPage is the most entries the 16-bit page count can hold.
const maxPerPage = 1<<16 - 1

// MaxPageSize is the largest page size New accepts: one byte more and a
// page would hold more entries than its 16-bit count can record.
const MaxPageSize = pageHeader + (maxPerPage+1)*entrySize - 1

// mergeEvery is the length at which a tail page's unsorted suffix is
// merged into its sorted prefix. Larger values make inserts cheaper (fewer
// passes over the prefix) and tail-page probes dearer (a longer linear
// scan).
const mergeEvery = 64

// Options configures a Table.
type Options struct {
	// Buckets is the number of hash buckets. If zero it is derived from
	// ExpectedEntries so that the average bucket fits in one page.
	Buckets int
	// ExpectedEntries sizes the directory when Buckets is zero.
	ExpectedEntries int
}

// Table is one paged hash table: the unit the optimizer's budget counts
// ("a specified number K of hash tables", Section 5).
type Table struct {
	pager *storage.Pager
	first []storage.PageID // per-bucket chain head
	last  []storage.PageID // per-bucket chain tail (insert point)
	// sorted is the length of each tail page's key-sorted prefix; every
	// other page of a chain is sorted throughout.
	sorted  []uint16
	entries int
	perPage int
}

// New creates an empty table drawing pages from pager. Page sizes above
// MaxPageSize are rejected.
func New(pager *storage.Pager, opt Options) (*Table, error) {
	perPage := (pager.PageSize() - pageHeader) / entrySize
	if perPage < 1 {
		return nil, fmt.Errorf("hashtable: page size %d too small", pager.PageSize())
	}
	if perPage > maxPerPage {
		return nil, fmt.Errorf("hashtable: page size %d too large (max %d): a page holds at most %d entries", pager.PageSize(), MaxPageSize, maxPerPage)
	}
	nb := opt.Buckets
	if nb <= 0 {
		if opt.ExpectedEntries > 0 {
			nb = (opt.ExpectedEntries + perPage - 1) / perPage
		} else {
			nb = 64
		}
	}
	t := &Table{
		pager:   pager,
		first:   make([]storage.PageID, nb),
		last:    make([]storage.PageID, nb),
		sorted:  make([]uint16, nb),
		perPage: perPage,
	}
	for i := range t.first {
		t.first[i] = storage.PageID(noPage)
		t.last[i] = storage.PageID(noPage)
	}
	return t, nil
}

// mix finalizes a key into a bucket index; keys produced by bit sampling
// are already hash-like but cheap extra mixing guards degenerate cases.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *Table) bucket(key uint64) int {
	return int(mix(key) % uint64(len(t.first)))
}

// Entries returns the number of stored (key, sid) pairs.
func (t *Table) Entries() int { return t.entries }

// Buckets returns the directory size.
func (t *Table) Buckets() int { return len(t.first) }

func pageCount(p []byte) int { return int(binary.LittleEndian.Uint16(p[4:])) }

func setPageCount(p []byte, n int) { binary.LittleEndian.PutUint16(p[4:], uint16(n)) }

func pageNext(p []byte) storage.PageID { return storage.PageID(binary.LittleEndian.Uint32(p)) }

func setPageNext(p []byte, id storage.PageID) { binary.LittleEndian.PutUint32(p, uint32(id)) }

func entryOff(i int) int { return pageHeader + i*entrySize }

func entryKey(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[entryOff(i):]) }

func pageEntry(p []byte, i int) (key uint64, sid storage.SID) {
	off := entryOff(i)
	return binary.LittleEndian.Uint64(p[off:]), binary.LittleEndian.Uint32(p[off+8:])
}

func setPageEntry(p []byte, i int, key uint64, sid storage.SID) {
	off := entryOff(i)
	binary.LittleEndian.PutUint64(p[off:], key)
	binary.LittleEndian.PutUint32(p[off+8:], sid)
}

// entry is one decoded (key, sid) pair.
type entry struct {
	key uint64
	sid storage.SID
}

// lowerBound returns the first index in the sorted prefix p[0:n) whose key
// is not below key.
func lowerBound(p []byte, n int, key uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entryKey(p, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefixLen returns the length of page id's sorted prefix in bucket b:
// the tracked prefix on the tail page, the whole page elsewhere.
func (t *Table) prefixLen(b int, id storage.PageID, n int) int {
	if id == t.last[b] {
		return int(t.sorted[b])
	}
	return n
}

// Insert appends (key, sid) to its bucket's tail page and merges the
// page's unsorted suffix into its sorted prefix once the suffix holds
// mergeEvery entries or the page fills. Duplicate pairs are stored again;
// filter-index build never produces duplicates within one table.
func (t *Table) Insert(key uint64, sid storage.SID) {
	b := t.bucket(key)
	p, n := t.tail(b)
	setPageEntry(p, n, key, sid)
	n++
	setPageCount(p, n)
	if s := int(t.sorted[b]); n == t.perPage || n-s == mergeEvery {
		mergeSuffix(p, s, n)
		t.sorted[b] = uint16(n)
	}
	t.entries++
}

// mergeSuffix stably sorts the page's suffix [s, n) (at most mergeEvery
// entries) by key and merges it into the sorted prefix [0, s), behind any
// equal keys. It walks the prefix back from its end once, moving each run
// that must shift with one copy.
func mergeSuffix(p []byte, s, n int) {
	var buf [mergeEvery]entry
	var tmp [mergeEvery]entry
	suf := buf[:n-s]
	for i := range suf {
		suf[i].key, suf[i].sid = pageEntry(p, s+i)
	}
	sortByKey(suf, tmp[:])
	hi, w := s, n
	for j := len(suf) - 1; j >= 0; j-- {
		pos := hi
		for pos > 0 && entryKey(p, pos-1) > suf[j].key {
			pos--
		}
		if pos < hi {
			copy(p[entryOff(w-(hi-pos)):entryOff(w)], p[entryOff(pos):entryOff(hi)])
			w -= hi - pos
			hi = pos
		}
		w--
		setPageEntry(p, w, suf[j].key, suf[j].sid)
	}
}

// insertionSort stably sorts es by key.
func insertionSort(es []entry) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i
		for ; j > 0 && es[j-1].key > e.key; j-- {
			es[j] = es[j-1]
		}
		es[j] = e
	}
}

// maxRadixBits caps the digit width of sortByKey's distribution pass.
const maxRadixBits = 8

// sortByKey stably sorts es by key, using tmp (len(tmp) >= len(es)) as
// scratch: a most-significant-digit radix sort that distributes the
// entries on the top key bits that differ among them, about one bucket per
// entry, recurses into each bucket of more than 16 entries, and leaves the
// inversions within smaller buckets to one closing insertion sort.
func sortByKey(es, tmp []entry) {
	if len(es) > 16 {
		and, or := ^uint64(0), uint64(0)
		for _, e := range es {
			and &= e.key
			or |= e.key
		}
		if and == or {
			return
		}
		width := min(bits.Len(uint(len(es))), maxRadixBits)
		mask := uint64(1)<<width - 1
		shift := max(bits.Len64(and^or)-width, 0)
		var next [1 << maxRadixBits]int32
		for _, e := range es {
			next[e.key>>shift&mask]++
		}
		var start [1<<maxRadixBits + 1]int32
		sum := int32(0)
		for d, c := range next[:mask+1] {
			start[d], next[d] = sum, sum
			sum += c
		}
		start[mask+1] = sum
		for _, e := range es {
			d := e.key >> shift & mask
			tmp[next[d]] = e
			next[d]++
		}
		copy(es, tmp[:len(es)])
		for d := 0; d <= int(mask); d++ {
			if lo, hi := start[d], start[d+1]; hi-lo > 16 {
				sortByKey(es[lo:hi], tmp[lo:hi])
			}
		}
	}
	insertionSort(es)
}

// tail returns bucket b's tail page and its entry count, first starting
// the chain, or linking a fresh tail page, when there is no room.
func (t *Table) tail(b int) ([]byte, int) {
	if t.last[b] == storage.PageID(noPage) {
		id := t.allocPage()
		t.first[b], t.last[b] = id, id
	}
	p := t.pager.MustPage(t.last[b])
	n := pageCount(p)
	if n == t.perPage {
		id := t.allocPage()
		setPageNext(p, id)
		t.last[b] = id
		t.sorted[b] = 0
		p = t.pager.MustPage(id)
		n = 0
	}
	return p, n
}

func (t *Table) allocPage() storage.PageID {
	id := t.pager.Alloc()
	p := t.pager.MustPage(id)
	setPageNext(p, storage.PageID(noPage))
	setPageCount(p, 0)
	return id
}

// Load stores keys[i] with sids[i] for every i, in order: the bulk
// equivalent of calling Insert on each pair in turn, leaving identical
// page contents and charges in every bucket. It bucket-sorts the stream
// (stably, so each bucket keeps arrival order), then writes each chain a
// page at a time, sorting every page once instead of merging as it fills.
func (t *Table) Load(keys []uint64, sids []storage.SID) {
	if len(keys) != len(sids) {
		panic(fmt.Sprintf("hashtable: Load of %d keys with %d sids", len(keys), len(sids)))
	}
	nb := len(t.first)
	start := make([]int, nb+1)
	buckets := make([]int32, len(keys))
	for i, k := range keys {
		b := t.bucket(k)
		buckets[i] = int32(b)
		start[b+1]++
	}
	for b := 0; b < nb; b++ {
		start[b+1] += start[b]
	}
	order := make([]entry, len(keys))
	next := slices.Clone(start[:nb])
	for i, b := range buckets {
		order[next[b]] = entry{keys[i], sids[i]}
		next[b]++
	}
	var l loader
	for b := 0; b < nb; b++ {
		l.appendRun(t, b, order[start[b]:start[b+1]])
	}
	t.entries += len(keys)
}

// loader holds Load's page-sized scratch across buckets.
type loader struct {
	page, tmp []entry
}

// appendRun writes run onto bucket b's chain, leaving each page in the
// layout Insert would: fully sorted once full, otherwise sorted up to the
// last multiple of mergeEvery past the previous sorted prefix, with the
// rest in arrival order behind it.
func (l *loader) appendRun(t *Table, b int, run []entry) {
	for len(run) > 0 {
		p, n0 := t.tail(b)
		take := min(t.perPage-n0, len(run))
		l.page = l.page[:0]
		for i := 0; i < n0; i++ {
			key, sid := pageEntry(p, i)
			l.page = append(l.page, entry{key, sid})
		}
		l.page = append(l.page, run[:take]...)
		n, s := n0+take, int(t.sorted[b])
		if n == t.perPage {
			s = n
		} else if n-s >= mergeEvery {
			s = n - (n-s)%mergeEvery
		}
		l.tmp = slices.Grow(l.tmp[:0], s)[:s]
		sortByKey(l.page[:s], l.tmp)
		for i, e := range l.page {
			setPageEntry(p, i, e.key, e.sid)
		}
		setPageCount(p, n)
		t.sorted[b] = uint16(s)
		run = run[take:]
	}
}

// Probe returns the sids whose stored key equals key, appending to dst.
// Only exact-key matches count — the behaviour assumed by the p_{r,l}(s)
// analysis (two vectors collide iff their sampled bits agree), so sids
// that merely share the bucket are skipped. Every chain page visited
// costs one random page read on io (which may be nil); within a page only
// the binary-search path, the matching run and the tail page's unsorted
// suffix are read.
func (t *Table) Probe(key uint64, io *storage.Counter, dst []storage.SID) []storage.SID {
	b := t.bucket(key)
	id := t.first[b]
	for id != storage.PageID(noPage) {
		if io != nil {
			io.RecordRand(1)
		}
		p := t.pager.MustPage(id)
		n := pageCount(p)
		s := t.prefixLen(b, id, n)
		for i := lowerBound(p, s, key); i < s; i++ {
			k, sid := pageEntry(p, i)
			if k != key {
				break
			}
			dst = append(dst, sid)
		}
		for i := s; i < n; i++ {
			if k, sid := pageEntry(p, i); k == key {
				dst = append(dst, sid)
			}
		}
		id = pageNext(p)
	}
	return dst
}

// Range invokes fn for every stored (key, sid) entry, walking each bucket
// chain in page order. It reads pages directly (no I/O accounting — it is
// maintenance machinery, not a query path): the shard-summary layer uses it
// to rebuild key-occupancy sketches from final bucket contents in O(entries)
// without re-deriving keys from signatures.
func (t *Table) Range(fn func(key uint64, sid storage.SID)) {
	for b := range t.first {
		id := t.first[b]
		for id != storage.PageID(noPage) {
			p := t.pager.MustPage(id)
			n := pageCount(p)
			for i := 0; i < n; i++ {
				k, sid := pageEntry(p, i)
				fn(k, sid)
			}
			id = pageNext(p)
		}
	}
}

// Delete removes every (key, sid) pair from the table — the dynamic
// maintenance the paper notes hash indices support. Later entries of the
// page shift down over each hole, so sorted order is kept and no entry
// moves between pages: the chain keeps its pages, and probes their
// charges. It returns the number of entries removed.
func (t *Table) Delete(key uint64, sid storage.SID) int {
	b := t.bucket(key)
	removed := 0
	for id := t.first[b]; id != storage.PageID(noPage); {
		p := t.pager.MustPage(id)
		n0 := pageCount(p)
		n, s := n0, t.prefixLen(b, id, n0)
		for i := lowerBound(p, s, key); i < n; {
			k, v := pageEntry(p, i)
			switch {
			case k == key && v == sid:
				copy(p[entryOff(i):], p[entryOff(i+1):entryOff(n)])
				n--
				if i < s {
					s--
				}
			case i < s && k != key:
				i = s // past the prefix's run of key: scan the suffix
			default:
				i++
			}
		}
		removed += n0 - n
		setPageCount(p, n)
		if id == t.last[b] {
			t.sorted[b] = uint16(s)
		}
		id = pageNext(p)
	}
	t.entries -= removed
	return removed
}
