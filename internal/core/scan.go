// Alternative query executors for the cost-based planner.
//
// ScanPresigned is the direct-scan plan: one sequential pass over the
// shard heap, recomputing each live set's filter candidacy from its stored
// signature instead of probing bucket pages. Candidacy uses the exact
// insert-key = probe-key test the hash tables implement (a stored entry
// collides with the probe in table i iff its insert key equals probe key
// i), evaluated over the full Section 4.3 case combination including the
// negative sides — so the candidate set, and therefore the verified
// answer, is byte-identical to QueryPresigned's. What changes is only the
// access path: seq(heap pages) instead of rand(tables + candidates).
//
// ScreenPresigned is the screen-only plan: the normal filter probe, but
// candidates are answered from the min-hash agreement estimator without
// fetching a single data page. Approximate by construction — similarities
// are estimates and boundary sets can be misplaced. The engine only ever
// dispatches it under QueryOptions.AllowApproximate; core itself does not
// gate.
package core

import (
	"fmt"
	"maps"
	"time"

	"repro/internal/embed"
	"repro/internal/lsh"
	"repro/internal/minhash"
	"repro/internal/set"
	"repro/internal/simdist"
	"repro/internal/storage"
)

// ChernoffEps95 returns the 95%-confidence half-width of the k-coordinate
// min-hash agreement estimator (the classic family's screening margin).
// Family-aware callers should prefer Index.Eps95, which accounts for the
// packed-width debiasing and SuperMinHash's variance reduction.
func ChernoffEps95(k int) float64 { return chernoffEps95(k) }

// scanProbe is the precomputed candidacy test of one Section 4.3 range:
// up to two (positive, optional negative) FI pairs, with the query's
// per-table probe keys derived once. candidate = (∈posA ∧ ∉negA) ∨
// (∈posB ∧ ∉negB); ordinal -1 marks an absent term.
type scanProbe struct {
	posA, negA, posB, negB int
	keys                   map[int][]uint64 // consulted FI ordinal → query probe keys
}

// buildScanProbe mirrors candidatesFromSignature's case analysis exactly,
// including which negative probes exist (probe() there returns nil for an
// absent index, and DissimVector(lo=0)/SimVector(hi=1) are never probed).
func (ix *Index) buildScanProbe(sig minhash.Signature, s1, s2 float64, stats *QueryStats) (scanProbe, error) {
	p := scanProbe{posA: -1, negA: -1, posB: -1, negB: -1, keys: make(map[int][]uint64)}
	src := ix.emb.Bits(sig)
	lo, hi := ix.enclose(s1, s2)
	stats.EnclosedLo, stats.EnclosedHi = lo, hi

	_, hiIsDFI := ix.dfis[hi]
	_, loIsSFI := ix.sfis[lo]
	switch {
	case hiIsDFI:
		p.posA = ix.dfiOrd[hi]
		if _, ok := ix.dfis[lo]; ok {
			p.negA = ix.dfiOrd[lo]
		}
	case loIsSFI:
		p.posA = ix.sfiOrd[lo]
		if _, ok := ix.sfis[hi]; ok && hi < 1 {
			p.negA = ix.sfiOrd[hi]
		}
	default:
		dPoint, ok := ix.bothKindsPoint()
		if !ok {
			return p, fmt.Errorf("core: no usable filter indices for range [%g, %g]", s1, s2)
		}
		p.posA = ix.dfiOrd[dPoint]
		if _, ok := ix.dfis[lo]; ok && lo > 0 {
			p.negA = ix.dfiOrd[lo]
		}
		p.posB = ix.sfiOrd[dPoint]
		if _, ok := ix.sfis[hi]; ok && hi < 1 {
			p.negB = ix.sfiOrd[hi]
		}
	}
	for _, ord := range []int{p.posA, p.negA, p.posB, p.negB} {
		if ord >= 0 {
			if _, done := p.keys[ord]; !done {
				p.keys[ord] = ix.fis[ord].AppendProbeKeys(src, nil)
			}
		}
	}
	return p, nil
}

// candidate evaluates the combination for one stored signature. member
// recomputes the stored entry's insert keys for ord and compares them
// table-by-table against the query's probe keys — exactly the collision
// test the hash tables perform, without touching bucket pages.
func (p *scanProbe) candidate(ix *Index, src lsh.BitSource, keyBuf *[]uint64) bool {
	member := func(ord int) bool {
		qkeys := p.keys[ord]
		*keyBuf = ix.fis[ord].AppendInsertKeys(src, (*keyBuf)[:0])
		for t, k := range *keyBuf {
			if k == qkeys[t] {
				return true
			}
		}
		return false
	}
	if p.posA >= 0 && member(p.posA) && !(p.negA >= 0 && member(p.negA)) {
		return true
	}
	return p.posB >= 0 && member(p.posB) && !(p.negB >= 0 && member(p.negB))
}

// ScanPresigned answers the range query (q, [s1, s2]) by sequentially
// scanning the stored collection, with filter candidacy recomputed per
// live set from its stored signature. Matches are byte-identical to
// QueryPresigned with the same options (screening included); FetchIO
// charges the sequential heap read and IndexIO stays zero. A nil sig
// signs q locally.
func (ix *Index) ScanPresigned(q set.Set, sig minhash.Signature, s1, s2 float64, opt QueryOptions) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	start := time.Now()
	if s1 > s2 {
		return nil, stats, fmt.Errorf("core: invalid range [%g, %g]", s1, s2)
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	if sig == nil {
		ix.emb.SignInto(q, sc.sig)
		sig = sc.sig
	}
	probe, err := ix.buildScanProbe(sig, s1, s2, &stats)
	if err != nil {
		return nil, stats, err
	}

	var screenLo, screenHi float64
	var qp []uint64
	if opt.Screen {
		eps := opt.ScreenMargin
		if eps <= 0 {
			eps = ix.famEps
		}
		screenLo, screenHi = s1-eps, s2+eps
		qp = ix.packQuery(q, sig, sc.packed)
	}

	// Candidacy recomputes each stored entry's insert keys, which need the
	// classic embedding bits: read them from stored words when the family
	// can reproduce them, otherwise re-sign classic from the scanned set
	// (the scan already has the set in hand, so this costs CPU only).
	var matches []Match
	var scanErr error
	sb := embed.SigBits{E: ix.emb}
	pb := embed.PackedSigBits{E: ix.emb, Fam: ix.fam}
	var resigned minhash.Signature
	if !ix.classic64 && !ix.recoverable {
		resigned = make(minhash.Signature, ix.emb.K())
	}
	var keyBuf []uint64
	err = ix.store.Scan(&stats.FetchIO, func(sid storage.SID, s set.Set) bool {
		var src lsh.BitSource
		switch {
		case ix.classic64:
			sb.Sig = ix.sigs[sid]
			src = &sb
		case ix.recoverable:
			pb.Words = ix.sigs[sid]
			src = &pb
		default:
			ix.emb.SignInto(s, resigned)
			sb.Sig = resigned
			src = &sb
		}
		if !probe.candidate(ix, src, &keyBuf) {
			return true
		}
		stats.Candidates++
		if opt.Screen {
			est, err := ix.fam.Estimate(qp, ix.sigs[sid])
			if err != nil {
				scanErr = fmt.Errorf("core: screening candidate %d: %w", sid, err)
				return false
			}
			if est < screenLo || est > screenHi {
				stats.Screened++
				return true
			}
		}
		sim := q.Jaccard(s)
		if sim >= s1 && sim <= s2 {
			matches = append(matches, Match{SID: sid, Similarity: sim})
		}
		return true
	})
	if scanErr != nil {
		return nil, stats, scanErr
	}
	if err != nil {
		return nil, stats, err
	}
	sortMatches(matches)
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}

// ScreenPresigned answers the range query from the filter candidates'
// signature estimates alone: the normal bucket probes run (IndexIO is
// charged), but no data page is ever fetched — each candidate whose
// estimated similarity falls in [s1, s2] is returned with that estimate
// as its similarity. Candidates estimated outside the range count as
// Screened. Approximate: callers opt in through the engine's
// AllowApproximate gate; core does not check it. A nil sig signs q
// locally.
func (ix *Index) ScreenPresigned(q set.Set, sig minhash.Signature, s1, s2 float64, opt QueryOptions) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	start := time.Now()
	if s1 > s2 {
		return nil, stats, fmt.Errorf("core: invalid range [%g, %g]", s1, s2)
	}
	sc := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(sc)
	if sig == nil {
		ix.emb.SignInto(q, sc.sig)
		sig = sc.sig
	}
	cands, err := ix.candidatesFromSignature(sig, s1, s2, &stats, sc)
	if err != nil {
		return nil, stats, err
	}
	qp := ix.packQuery(q, sig, sc.packed)
	matches := make([]Match, 0, len(cands)/4+1)
	for _, sid := range cands {
		est, err := ix.fam.Estimate(qp, ix.sigs[sid])
		if err != nil {
			return nil, stats, fmt.Errorf("core: screening candidate %d: %w", sid, err)
		}
		if est >= s1 && est <= s2 {
			matches = append(matches, Match{SID: sid, Similarity: est})
		} else {
			stats.Screened++
		}
	}
	sortMatches(matches)
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}

// captureKey names one tabulated capture curve: the enclosing partition
// points and the histogram resolution it is sampled at.
type captureKey struct {
	lo, hi float64
	bins   int
}

// CaptureFraction returns the Lemma 1 capture estimate for the range
// [lo, hi] as a fraction of the collection: the modeled capture integral
// of the enclosing filter combination over hist, normalized by hist's
// total mass. A nil hist falls back to the build-time distribution; ok is
// false when no usable distribution exists. The capture curve depends
// only on the enclosure and the bin midpoints, never on the bin weights,
// so it is tabulated once per (enclosure, resolution) and each call is a
// weighted sum bit-identical to hist.Integrate(0, 1, CaptureAt). Reads
// only state immutable after Build plus the caller's histogram, so no
// lock is taken — the engine calls it with the tuner's live sketch.
func (ix *Index) CaptureFraction(hist *simdist.Histogram, lo, hi float64) (float64, bool) {
	if hist == nil {
		hist = ix.hist
	}
	if hist == nil || hist.Total() == 0 {
		return 0, false
	}
	elo, ehi := ix.enclose(lo, hi)
	return hist.IntegrateTable(ix.captureCurve(captureKey{lo: elo, hi: ehi, bins: hist.Bins()})) / hist.Total(), true
}

// captureCurve returns the plan's capture probabilities at the key's bin
// midpoints, tabulating them on first use. A miss publishes a copy of
// the table map with the new curve; if another first fill wins the race,
// the loop retries against its map.
func (ix *Index) captureCurve(key captureKey) []float64 {
	cur := ix.capture.Load()
	if cur != nil {
		if vals, ok := (*cur)[key]; ok {
			return vals
		}
	}
	vals := simdist.Tabulate(key.bins, func(s float64) float64 {
		return ix.plan.CaptureAt(key.lo, key.hi, s)
	})
	for {
		next := map[captureKey][]float64{key: vals}
		if cur != nil {
			if won, ok := (*cur)[key]; ok {
				return won
			}
			maps.Copy(next, *cur)
		}
		if ix.capture.CompareAndSwap(cur, &next) {
			return vals
		}
		cur = ix.capture.Load()
	}
}

// ProbeTables returns the number of hash tables a query with the given
// range probes under the Section 4.3 case analysis: the l values of the
// filter indices its combination consults (each probe is one random
// bucket-page read in the cost model). Plan state is immutable after
// Build, so no lock is taken.
func (ix *Index) ProbeTables(lo, hi float64) int {
	elo, ehi := ix.enclose(lo, hi)
	total := 0
	if f, ok := ix.dfis[ehi]; ok {
		total += f.Tables()
		if g, ok := ix.dfis[elo]; ok && elo > 0 {
			total += g.Tables()
		}
		return total
	}
	if f, ok := ix.sfis[elo]; ok {
		total += f.Tables()
		if g, ok := ix.sfis[ehi]; ok && ehi < 1 {
			total += g.Tables()
		}
		return total
	}
	if dp, ok := ix.bothKindsPoint(); ok {
		total += ix.dfis[dp].Tables() + ix.sfis[dp].Tables()
		if g, ok := ix.dfis[elo]; ok && elo > 0 {
			total += g.Tables()
		}
		if g, ok := ix.sfis[ehi]; ok && ehi < 1 {
			total += g.Tables()
		}
	}
	return total
}

// ExactScan answers the range query (q, [lo, hi]) by reading every live
// set sequentially and computing its exact Jaccard similarity: the scan
// side of the Section 6 index-vs-scan rule, with no filter and so no
// false negatives. FetchIO charges the sequential heap read and
// Candidates counts the sets examined.
func (ix *Index) ExactScan(q set.Set, lo, hi float64) ([]Match, QueryStats, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var stats QueryStats
	start := time.Now()
	var matches []Match
	err := ix.store.Scan(&stats.FetchIO, func(sid storage.SID, s set.Set) bool {
		stats.Candidates++
		sim := q.Jaccard(s)
		if sim >= lo && sim <= hi {
			matches = append(matches, Match{SID: sid, Similarity: sim})
		}
		return true
	})
	if err != nil {
		return nil, stats, err
	}
	sortMatches(matches)
	stats.Results = len(matches)
	stats.CPU = time.Since(start)
	return matches, stats, nil
}

// ScanCostInputs returns the shard's live set count, sequential heap page
// count, and average pages per set — the per-shard inputs of the planner's
// cost comparison.
func (ix *Index) ScanCostInputs() (live int, scanPages int64, pagesPerSet float64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.store.Live(), ix.store.NumPages(), ix.store.AvgPagesPerSet()
}
