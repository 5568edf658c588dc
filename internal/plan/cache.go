// Generation-invalidated query-result cache for the query planner.
//
// Entries are validated lazily with a Token captured when the entry was
// created: the engine's plan generation plus a snapshot of every shard's
// mutation counter. Retunes and hot-swaps bump the generation; every
// insert/delete bumps its shard's counter — so a stale entry is detected
// (and evicted) at lookup time, with no invalidation hook on any mutation
// path and therefore no cache lock ever taken while an engine or core
// lock is held. The token is snapshotted BEFORE the query executes: if a
// mutation lands mid-query the results may include it but the token will
// not, so a later lookup (which sees the newer counter) misses —
// conservative, never stale.
//
// Lock order: ResultCache.mu sits outside (above) the engine's lock
// chain; see the package comment in plan.go.
package plan

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/core"
)

// Token identifies the engine state a cache entry was computed against.
type Token struct {
	// Gen is the engine's plan generation at snapshot time.
	Gen uint64
	// Muts holds each shard's mutation counter at snapshot time.
	Muts []uint64
}

// equal reports exact state identity (generation and every counter).
func (t Token) equal(o Token) bool {
	if t.Gen != o.Gen || len(t.Muts) != len(o.Muts) {
		return false
	}
	for i, m := range t.Muts {
		if m != o.Muts[i] {
			return false
		}
	}
	return true
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// ResultKey identifies one cacheable query: the exact element multiset,
// the requested range, and the option bits that change the answer.
type ResultKey struct {
	// Elems is the query set's sorted element slice. Get may alias the
	// caller's slice; Put copies.
	Elems []uint64
	// Lo, Hi is the requested similarity range.
	Lo, Hi float64
	// Flags packs answer-changing options (screening on, approximate
	// allowed).
	Flags uint64
	// Margin is the screening margin (answer-changing when screening is
	// on).
	Margin float64
}

func (k ResultKey) hash() uint64 {
	h := uint64(fnvOffset)
	for _, e := range k.Elems {
		h = fnvMix(h, e)
	}
	h = fnvMix(h, math.Float64bits(k.Lo))
	h = fnvMix(h, math.Float64bits(k.Hi))
	h = fnvMix(h, k.Flags)
	h = fnvMix(h, math.Float64bits(k.Margin))
	return h
}

func (k ResultKey) equal(o ResultKey) bool {
	if len(k.Elems) != len(o.Elems) || k.Lo != o.Lo || k.Hi != o.Hi ||
		k.Flags != o.Flags || k.Margin != o.Margin {
		return false
	}
	for i, e := range k.Elems {
		if e != o.Elems[i] {
			return false
		}
	}
	return true
}

// CachedResult is the answer stored for a result-cache hit.
type CachedResult struct {
	Matches                []core.Match
	EnclosedLo, EnclosedHi float64
}

type resultEntry struct {
	hash uint64
	key  ResultKey
	tok  Token
	val  CachedResult
}

// ResultCache is an LRU query-result cache. One slot per 64-bit key hash:
// a hash collision between different keys behaves as a miss (Get) or a
// replacement (Put) — deterministic and vanishingly rare. All state is
// guarded by mu; values are deep-copied on both Put and Get so no caller
// ever aliases guarded memory.
type ResultCache struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List
	byHash map[uint64]*list.Element
}

// NewResultCache returns a cache holding at most capacity entries
// (capacity < 1 is clamped to 1).
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{cap: capacity, lru: list.New(), byHash: make(map[uint64]*list.Element)}
}

// Get returns the cached answer for key if present AND computed against
// exactly the state tok describes. A present-but-stale entry is evicted.
func (c *ResultCache) Get(key ResultKey, tok Token) (CachedResult, bool) {
	h := key.hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byHash[h]
	if !ok {
		return CachedResult{}, false
	}
	e := el.Value.(*resultEntry)
	if !e.key.equal(key) {
		return CachedResult{}, false
	}
	if !e.tok.equal(tok) {
		c.lru.Remove(el)
		delete(c.byHash, h)
		return CachedResult{}, false
	}
	c.lru.MoveToFront(el)
	out := CachedResult{
		Matches:    append([]core.Match(nil), e.val.Matches...),
		EnclosedLo: e.val.EnclosedLo,
		EnclosedHi: e.val.EnclosedHi,
	}
	return out, true
}

// Put stores the answer for key computed against state tok, copying the
// key's elements and the matches so the cache shares no memory with the
// caller. An existing entry under the same hash is replaced.
func (c *ResultCache) Put(key ResultKey, tok Token, val CachedResult) {
	h := key.hash()
	stored := resultEntry{
		hash: h,
		key: ResultKey{
			Elems:  append([]uint64(nil), key.Elems...),
			Lo:     key.Lo,
			Hi:     key.Hi,
			Flags:  key.Flags,
			Margin: key.Margin,
		},
		tok: Token{Gen: tok.Gen, Muts: append([]uint64(nil), tok.Muts...)},
		val: CachedResult{
			Matches:    append([]core.Match(nil), val.Matches...),
			EnclosedLo: val.EnclosedLo,
			EnclosedHi: val.EnclosedHi,
		},
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[h]; ok {
		*el.Value.(*resultEntry) = stored
		c.lru.MoveToFront(el)
		return
	}
	c.byHash[h] = c.lru.PushFront(&stored)
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byHash, back.Value.(*resultEntry).hash)
	}
}

// Len returns the number of live entries (for tests).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
