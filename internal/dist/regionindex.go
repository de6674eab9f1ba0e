package dist

import "sort"

// regionIndex holds one buffer's tracked import regions of a session,
// ordered by offset, so an applied export visits only the regions it
// overlaps instead of every region of the buffer. A region [o, o+size)
// overlaps the export [lo, hi) iff o < hi and lo < o+size; since size
// is at most maxSize, every overlapping region also has o > lo-maxSize,
// which bounds the scan to one contiguous run of the sorted slice.
type regionIndex struct {
	regions []*trackedRegion // sorted by key.offset
	maxSize int64
}

// add inserts a newly tracked region.
func (ix *regionIndex) add(tr *trackedRegion) {
	i := sort.Search(len(ix.regions), func(i int) bool { return ix.regions[i].key.offset > tr.key.offset })
	ix.regions = append(ix.regions, nil)
	copy(ix.regions[i+1:], ix.regions[i:])
	ix.regions[i] = tr
	if tr.key.size > ix.maxSize {
		ix.maxSize = tr.key.size
	}
}

// bump advances the version of every region overlapping [lo, hi),
// invalidating every cached copy of it.
func (ix *regionIndex) bump(lo, hi int64) {
	from := lo - ix.maxSize
	i := sort.Search(len(ix.regions), func(i int) bool { return ix.regions[i].key.offset > from })
	for ; i < len(ix.regions) && ix.regions[i].key.offset < hi; i++ {
		if tr := ix.regions[i]; lo < tr.key.offset+tr.key.size {
			tr.ver++
		}
	}
}
