package ssr

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hashtable"
)

// FuzzLoad feeds arbitrary bytes to the public snapshot loader: corrupt or
// truncated snapshots must return an error, never panic, and never
// allocate unboundedly. Mirrors internal/storage's FuzzDecodeCorrupt
// discipline at the top of the persistence stack.
func FuzzLoad(f *testing.F) {
	// Seed with a genuine snapshot (with a tombstone, exercising the
	// sid-preserving layout) so mutations explore near-valid encodings.
	c := bookstore()
	ix, err := Build(c, Options{Budget: 24, MinHashes: 32, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := ix.Remove(1); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Add(snap.Bytes()[:len(snap.Bytes())/2])
	f.Add(oversizedPageSnapshot(f))
	f.Add([]byte("SSRPUB1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The rare mutation that still decodes must yield a usable index.
		if _, _, qerr := loaded.Query([]string{"dune"}, 0.5, 1.0); qerr != nil {
			t.Fatalf("loaded index cannot query: %v", qerr)
		}
	})
}

// oversizedPageSnapshot returns a public snapshot whose page size lies
// past hashtable.MaxPageSize. It saves an index built at 65,536-byte pages
// and patches that field's gob encoding (FD 02 00 00) in place with the
// encoding of 1<<22 (FD 80 00 00), which has the same length.
func oversizedPageSnapshot(tb testing.TB) []byte {
	tb.Helper()
	ix, err := Build(bookstore(), Options{Budget: 24, MinHashes: 32, Seed: 3, PageSize: 1 << 16})
	if err != nil {
		tb.Fatal(err)
	}
	var snap bytes.Buffer
	if err := ix.Save(&snap); err != nil {
		tb.Fatal(err)
	}
	from, to := []byte{0xfd, 0x02, 0x00, 0x00}, []byte{0xfd, 0x80, 0x00, 0x00}
	if n := bytes.Count(snap.Bytes(), from); n != 1 {
		tb.Fatalf("page-size encoding occurs %d times in the snapshot, want once", n)
	}
	return bytes.Replace(snap.Bytes(), from, to, 1)
}

// TestLoadRejectsOversizedPageSize checks Load refuses a snapshot whose
// page size no bucket page can have, instead of rebuilding filter pages
// of that size.
func TestLoadRejectsOversizedPageSize(t *testing.T) {
	_, err := Load(bytes.NewReader(oversizedPageSnapshot(t)))
	if err == nil || !strings.Contains(err.Error(), "snapshot page size") {
		t.Fatalf("Load error = %v, want a page-size rejection", err)
	}
}

// TestBuildRejectsOversizedPageSize checks Build refuses pages too large
// for the bucket pages' 16-bit entry count rather than losing entries.
func TestBuildRejectsOversizedPageSize(t *testing.T) {
	for _, size := range []int{hashtable.MaxPageSize + 1, 1 << 20} {
		_, err := Build(bookstore(), Options{Budget: 24, MinHashes: 32, Seed: 3, PageSize: size})
		if err == nil || !strings.Contains(err.Error(), "page size") {
			t.Errorf("PageSize %d: Build error = %v, want a page-size rejection", size, err)
		}
	}
}
