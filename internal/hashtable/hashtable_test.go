package hashtable

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func newTable(t *testing.T, opt Options) *Table {
	t.Helper()
	tab, err := New(storage.NewPager(256), opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestInsertProbeExact(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 100})
	tab.Insert(111, 1)
	tab.Insert(222, 2)
	tab.Insert(111, 3)
	got := tab.Probe(111, nil, nil)
	if len(got) != 2 {
		t.Fatalf("Probe(111) = %v", got)
	}
	seen := map[storage.SID]bool{}
	for _, sid := range got {
		seen[sid] = true
	}
	if !seen[1] || !seen[3] || seen[2] {
		t.Errorf("Probe(111) = %v, want sids 1 and 3", got)
	}
	if tab.Entries() != 3 {
		t.Errorf("Entries = %d", tab.Entries())
	}
}

func TestProbeMissingKey(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 10})
	tab.Insert(5, 50)
	if got := tab.Probe(999999, nil, nil); len(got) != 0 {
		// Probes match keys exactly, so an absent key returns nothing even
		// when other keys share its bucket.
		t.Errorf("probe of absent key returned %v", got)
	}
}

func TestOverflowChains(t *testing.T) {
	// One bucket, many entries: must chain overflow pages and return all.
	tab := newTable(t, Options{Buckets: 1})
	const n = 500
	for i := 0; i < n; i++ {
		tab.Insert(77, storage.SID(i))
	}
	var io storage.Counter
	got := tab.Probe(77, &io, nil)
	if len(got) != n {
		t.Fatalf("probe returned %d of %d entries", len(got), n)
	}
	perPage := (256 - pageHeader) / entrySize
	wantPages := int64((n + perPage - 1) / perPage)
	if io.Rand() != wantPages {
		t.Errorf("charged %d page reads, want %d", io.Rand(), wantPages)
	}
}

func TestBucketsSizedFromExpectedEntries(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 10000})
	perPage := (256 - pageHeader) / entrySize
	want := (10000 + perPage - 1) / perPage
	if tab.Buckets() != want {
		t.Errorf("Buckets = %d, want %d", tab.Buckets(), want)
	}
}

func TestDefaultBuckets(t *testing.T) {
	tab := newTable(t, Options{})
	if tab.Buckets() != 64 {
		t.Errorf("default Buckets = %d", tab.Buckets())
	}
}

func TestPageTooSmall(t *testing.T) {
	if _, err := New(storage.NewPager(8), Options{}); err == nil {
		t.Error("8-byte pages accepted")
	}
}

func TestEntryEncodingRoundTrip(t *testing.T) {
	p := make([]byte, 256)
	setPageEntry(p, 0, ^uint64(0), ^uint32(0))
	setPageEntry(p, 1, 0x0102030405060708, 42)
	k, s := pageEntry(p, 0)
	if k != ^uint64(0) || s != ^uint32(0) {
		t.Errorf("entry 0 = %x, %d", k, s)
	}
	k, s = pageEntry(p, 1)
	if k != 0x0102030405060708 || s != 42 {
		t.Errorf("entry 1 = %x, %d", k, s)
	}
}

func TestPageHeaderEncoding(t *testing.T) {
	p := make([]byte, 64)
	setPageNext(p, 0xDEADBEEF)
	setPageCount(p, 513)
	if pageNext(p) != 0xDEADBEEF {
		t.Errorf("next = %x", pageNext(p))
	}
	if pageCount(p) != 513 {
		t.Errorf("count = %d", pageCount(p))
	}
}

func TestManyKeysNoCrossContamination(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 2000})
	rng := rand.New(rand.NewSource(4))
	ref := make(map[uint64][]storage.SID)
	for i := 0; i < 2000; i++ {
		key := rng.Uint64() % 500
		sid := storage.SID(i)
		ref[key] = append(ref[key], sid)
		tab.Insert(key, sid)
	}
	for key, want := range ref {
		got := tab.Probe(key, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d sids, want %d", key, len(got), len(want))
		}
		seen := map[storage.SID]bool{}
		for _, s := range got {
			seen[s] = true
		}
		for _, s := range want {
			if !seen[s] {
				t.Fatalf("key %d missing sid %d", key, s)
			}
		}
	}
}

func TestProbeAppendsToDst(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 10})
	tab.Insert(1, 100)
	dst := []storage.SID{5}
	got := tab.Probe(1, nil, dst)
	if len(got) != 2 || got[0] != 5 || got[1] != 100 {
		t.Errorf("Probe with dst = %v", got)
	}
}

func TestDelete(t *testing.T) {
	tab := newTable(t, Options{ExpectedEntries: 100})
	tab.Insert(1, 10)
	tab.Insert(1, 11)
	tab.Insert(2, 20)
	if got := tab.Delete(1, 10); got != 1 {
		t.Fatalf("Delete removed %d entries, want 1", got)
	}
	got := tab.Probe(1, nil, nil)
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("Probe(1) after delete = %v, want [11]", got)
	}
	if got := tab.Probe(2, nil, nil); len(got) != 1 {
		t.Errorf("unrelated key disturbed: %v", got)
	}
	if tab.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", tab.Entries())
	}
	if got := tab.Delete(1, 10); got != 0 {
		t.Errorf("second delete removed %d", got)
	}
}

func TestDeleteFromOverflowChain(t *testing.T) {
	tab := newTable(t, Options{Buckets: 1})
	const n = 300
	for i := 0; i < n; i++ {
		tab.Insert(uint64(i%7), storage.SID(i))
	}
	// Delete every entry of key 3 across the chain.
	want := 0
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			want++
		}
	}
	removed := 0
	for i := 0; i < n; i++ {
		if i%7 == 3 {
			removed += tab.Delete(3, storage.SID(i))
		}
	}
	if removed != want {
		t.Fatalf("removed %d, want %d", removed, want)
	}
	if got := tab.Probe(3, nil, nil); len(got) != 0 {
		t.Errorf("key 3 still has %d entries", len(got))
	}
	// All other keys intact.
	total := 0
	for k := uint64(0); k < 7; k++ {
		total += len(tab.Probe(k, nil, nil))
	}
	if total != n-want {
		t.Errorf("%d entries remain, want %d", total, n-want)
	}
}

func TestPageSizeLimit(t *testing.T) {
	tab, err := New(storage.NewPager(MaxPageSize), Options{Buckets: 1})
	if err != nil {
		t.Fatalf("MaxPageSize rejected: %v", err)
	}
	if tab.perPage != maxPerPage {
		t.Errorf("perPage at MaxPageSize = %d, want %d", tab.perPage, maxPerPage)
	}
	for _, size := range []int{MaxPageSize + 1, 1 << 20} {
		if _, err := New(storage.NewPager(size), Options{}); err == nil {
			t.Errorf("page size %d accepted: its entry count overflows the 16-bit page header", size)
		}
	}
}

// TestLargestPagesKeepEveryEntry pins the fix for silent entry loss: a
// page's entry count is 16 bits, so pages holding more entries than that
// used to drop the count modulo 65,536.
func TestLargestPagesKeepEveryEntry(t *testing.T) {
	const n = 70000
	keys := make([]uint64, n)
	sids := make([]storage.SID, n)
	for i := range sids {
		keys[i], sids[i] = 9, storage.SID(i)
	}
	for _, load := range []bool{false, true} {
		tab, err := New(storage.NewPager(MaxPageSize), Options{Buckets: 1})
		if err != nil {
			t.Fatal(err)
		}
		if load {
			tab.Load(keys, sids)
		} else {
			for i := range keys {
				tab.Insert(keys[i], sids[i])
			}
		}
		var io storage.Counter
		if got := len(tab.Probe(9, &io, nil)); got != n {
			t.Errorf("load=%v: probe returned %d of %d entries", load, got, n)
		}
		if io.Rand() != 2 {
			t.Errorf("load=%v: charged %d pages, want 2", load, io.Rand())
		}
	}
}

// chain returns the pages of bucket b in chain order.
func chain(tab *Table, b int) [][]byte {
	var pages [][]byte
	for id := tab.first[b]; id != storage.PageID(noPage); {
		p := tab.pager.MustPage(id)
		pages = append(pages, p)
		id = pageNext(p)
	}
	return pages
}

// checkLayout verifies the page-order invariant: every page but a chain's
// tail is key-sorted throughout, and the tail is key-sorted up to its
// tracked prefix, behind which fewer than mergeEvery entries wait.
func checkLayout(t *testing.T, tab *Table) {
	t.Helper()
	for b := range tab.first {
		pages := chain(tab, b)
		for i, p := range pages {
			n := pageCount(p)
			s := n
			if i == len(pages)-1 {
				s = int(tab.sorted[b])
				if s > n || n-s >= mergeEvery {
					t.Fatalf("bucket %d tail: sorted prefix %d of %d entries", b, s, n)
				}
			}
			for j := 1; j < s; j++ {
				if entryKey(p, j-1) > entryKey(p, j) {
					t.Fatalf("bucket %d page %d: keys out of order at entry %d", b, i, j)
				}
			}
		}
	}
}

// samePages reports the first difference between two tables' chains:
// page count, entry count, entry bytes or tail prefix, bucket by bucket.
func samePages(a, b *Table) string {
	if len(a.first) != len(b.first) {
		return fmt.Sprintf("%d vs %d buckets", len(a.first), len(b.first))
	}
	for bk := range a.first {
		pa, pb := chain(a, bk), chain(b, bk)
		if len(pa) != len(pb) {
			return fmt.Sprintf("bucket %d: %d vs %d pages", bk, len(pa), len(pb))
		}
		for i := range pa {
			na, nb := pageCount(pa[i]), pageCount(pb[i])
			if na != nb || !bytes.Equal(pa[i][pageHeader:entryOff(na)], pb[i][pageHeader:entryOff(nb)]) {
				return fmt.Sprintf("bucket %d page %d differs", bk, i)
			}
		}
		if len(pa) > 0 && a.sorted[bk] != b.sorted[bk] {
			return fmt.Sprintf("bucket %d: sorted prefix %d vs %d", bk, a.sorted[bk], b.sorted[bk])
		}
	}
	return ""
}

func TestLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, pageSize := range []int{64, 256, 4096} {
		for _, buckets := range []int{1, 3, 0} {
			opt := Options{Buckets: buckets, ExpectedEntries: 2000}
			loaded, err := New(storage.NewPager(pageSize), opt)
			if err != nil {
				t.Fatal(err)
			}
			inserted, _ := New(storage.NewPager(pageSize), opt)
			// Three batches, so later loads extend partly filled tails.
			sid := storage.SID(0)
			for _, n := range []int{700, 1, 1300} {
				keys := make([]uint64, n)
				sids := make([]storage.SID, n)
				for i := range keys {
					keys[i] = rng.Uint64() >> uint(rng.Intn(64))
					if rng.Intn(4) == 0 {
						keys[i] = uint64(rng.Intn(8)) // long runs of equal keys
					}
					sids[i] = sid
					sid++
					inserted.Insert(keys[i], sids[i])
				}
				loaded.Load(keys, sids)
			}
			if d := samePages(loaded, inserted); d != "" {
				t.Errorf("page size %d, buckets %d: Load and Insert layouts differ: %s", pageSize, buckets, d)
			}
			if loaded.Entries() != inserted.Entries() {
				t.Errorf("Entries %d vs %d", loaded.Entries(), inserted.Entries())
			}
			checkLayout(t, loaded)
		}
	}
}

func TestDeleteKeepsPagesSorted(t *testing.T) {
	tab := newTable(t, Options{Buckets: 2})
	rng := rand.New(rand.NewSource(3))
	type pair struct {
		key uint64
		sid storage.SID
	}
	var live []pair
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if tab.Delete(live[j].key, live[j].sid) != 1 {
				t.Fatalf("delete of stored pair removed nothing")
			}
			live = append(live[:j], live[j+1:]...)
		} else {
			p := pair{uint64(rng.Intn(50)) * 0x9e3779b97f4a7c15, storage.SID(i)}
			tab.Insert(p.key, p.sid)
			live = append(live, p)
		}
		checkLayout(t, tab)
	}
	if tab.Entries() != len(live) {
		t.Fatalf("Entries = %d, want %d", tab.Entries(), len(live))
	}
}

// fuzzKeys is FuzzTableOps' key space: small values and spread ones, so
// buckets see long runs of equal keys and every key byte varies.
var fuzzKeys = func() []uint64 {
	keys := make([]uint64, 24)
	for i := range keys {
		keys[i] = uint64(i)
		if i%2 == 1 {
			keys[i] *= 0x9e3779b97f4a7c15
		}
	}
	return keys
}()

// FuzzTableOps decodes bytes into interleaved Insert, Delete and Load
// operations and checks two tables against a map reference: one applies
// each Load as a bulk load, the other inserts the same pairs one by one.
// Both must return the reference's Probe multisets with one page read per
// chain page, agree with it on Entries and Range, keep the page-order
// invariant, and hold byte-identical pages bucket by bucket.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 2, 9, 200, 1, 5, 0, 3, 0, 0})
	f.Add([]byte{1, 2, 7, 255, 1, 0, 0, 1, 1, 0, 2, 3, 40, 0, 5, 5, 3, 0, 0})
	f.Add([]byte{2, 2, 1, 120, 2, 2, 130, 1, 9, 9, 1, 10, 10, 0, 11, 12, 3, 0, 0})
	f.Add([]byte{5, 2, 4, 255, 2, 6, 255, 1, 0, 0, 1, 1, 0, 1, 2, 0, 2, 8, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pageSize := []int{64, 256, 4096}[int(data[0])%3]
		buckets := []int{1, 5}[int(data[0]/3)%2]
		loaded, err := New(storage.NewPager(pageSize), Options{Buckets: buckets})
		if err != nil {
			t.Fatal(err)
		}
		inserted, _ := New(storage.NewPager(pageSize), Options{Buckets: buckets})
		ref := map[uint64]map[storage.SID]int{}
		count := 0
		add := func(key uint64, sid storage.SID) {
			if ref[key] == nil {
				ref[key] = map[storage.SID]int{}
			}
			ref[key][sid]++
			count++
		}
		check := func() {
			t.Helper()
			if d := samePages(loaded, inserted); d != "" {
				t.Fatalf("Load and Insert layouts differ: %s", d)
			}
			for _, tab := range []*Table{loaded, inserted} {
				checkLayout(t, tab)
				if tab.Entries() != count {
					t.Fatalf("Entries = %d, want %d", tab.Entries(), count)
				}
				seen := map[uint64]map[storage.SID]int{}
				n := 0
				tab.Range(func(key uint64, sid storage.SID) {
					if seen[key] == nil {
						seen[key] = map[storage.SID]int{}
					}
					seen[key][sid]++
					n++
				})
				if n != count {
					t.Fatalf("Range visited %d entries, want %d", n, count)
				}
				for _, key := range fuzzKeys {
					var io storage.Counter
					got := map[storage.SID]int{}
					for _, sid := range tab.Probe(key, &io, nil) {
						got[sid]++
					}
					if !maps.Equal(got, ref[key]) {
						t.Fatalf("Probe(%#x) = %v, want %v", key, got, ref[key])
					}
					if !maps.Equal(seen[key], ref[key]) {
						t.Fatalf("Range under %#x = %v, want %v", key, seen[key], ref[key])
					}
					if pages := len(chain(tab, tab.bucket(key))); io.Rand() != int64(pages) {
						t.Fatalf("Probe(%#x) charged %d reads for a %d-page chain", key, io.Rand(), pages)
					}
				}
			}
		}
		ops := data[1:]
		for ; len(ops) >= 3; ops = ops[3:] {
			a, c := ops[1], ops[2]
			switch ops[0] % 4 {
			case 0: // one insert into both tables
				key, sid := fuzzKeys[int(a)%len(fuzzKeys)], storage.SID(c)
				loaded.Insert(key, sid)
				inserted.Insert(key, sid)
				add(key, sid)
			case 1: // delete every copy of a pair, stored or not
				key, sid := fuzzKeys[int(a)%len(fuzzKeys)], storage.SID(c%16)
				want := ref[key][sid]
				if got := loaded.Delete(key, sid); got != want {
					t.Fatalf("Delete removed %d entries from the loaded table, want %d", got, want)
				}
				if got := inserted.Delete(key, sid); got != want {
					t.Fatalf("Delete removed %d entries from the inserted table, want %d", got, want)
				}
				delete(ref[key], sid)
				count -= want
			case 2: // a batch of c pairs: bulk-loaded into one table, inserted into the other
				rng := rand.New(rand.NewSource(int64(a)))
				keys := make([]uint64, c)
				sids := make([]storage.SID, c)
				for i := range keys {
					keys[i] = fuzzKeys[rng.Intn(len(fuzzKeys))]
					sids[i] = storage.SID(rng.Intn(16))
					inserted.Insert(keys[i], sids[i])
					add(keys[i], sids[i])
				}
				loaded.Load(keys, sids)
			case 3:
				check()
			}
		}
		check()
	})
}
