package dist

import (
	"math/rand"
	"testing"
)

// TestRegionIndexMatchesBruteForce pins the export-invalidation index to
// the scan it replaced: over overlapping regions of mixed sizes —
// duplicates at one offset, single bytes, regions spanning most of the
// buffer — every export must bump exactly the regions a full scan
// with the overlap predicate bumps, including zero-length exports and
// exports that touch a region only at its edge.
func TestRegionIndexMatchesBruteForce(t *testing.T) {
	const bufLen = 4096
	rng := rand.New(rand.NewSource(7))
	sizes := []int64{1, 3, 8, 64, 500, 3000}
	for round := 0; round < 20; round++ {
		var ix regionIndex
		var all []*trackedRegion
		want := map[*trackedRegion]uint64{}
		seen := map[regionKey]bool{}
		for len(all) < 200 {
			size := sizes[rng.Intn(len(sizes))]
			off := rng.Int63n(bufLen - size + 1)
			key := regionKey{buffer: "b", offset: off, size: size}
			if seen[key] {
				continue
			}
			seen[key] = true
			tr := &trackedRegion{key: key, ver: 1}
			all = append(all, tr)
			want[tr] = 1
			ix.add(tr)
			if len(all)%10 != 0 {
				continue
			}
			// Interleave exports with region growth, as buildExec and
			// handleDone do.
			for e := 0; e < 5; e++ {
				lo := rng.Int63n(bufLen)
				hi := lo + rng.Int63n(80)
				edge := all[rng.Intn(len(all))].key
				switch e {
				case 0:
					hi = lo
				case 1: // starts where a region ends
					lo = edge.offset + edge.size
					hi = lo + 1 + rng.Int63n(80)
				case 2: // ends where a region starts
					hi = edge.offset
					lo = hi - 1 - rng.Int63n(80)
				}
				ix.bump(lo, hi)
				for _, tr := range all {
					if tr.key.offset < hi && lo < tr.key.offset+tr.key.size {
						want[tr]++
					}
				}
				for _, tr := range all {
					if tr.ver != want[tr] {
						t.Fatalf("round %d: export [%d,%d) left region %+v at version %d, brute force %d",
							round, lo, hi, tr.key, tr.ver, want[tr])
					}
				}
			}
		}
		for i := 1; i < len(ix.regions); i++ {
			if ix.regions[i-1].key.offset > ix.regions[i].key.offset {
				t.Fatalf("round %d: index out of offset order at %d", round, i)
			}
		}
	}
}
