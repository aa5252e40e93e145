package placement

import (
	"slices"

	"costream/internal/sim"
)

// bitset is a fixed-capacity set of small non-negative integers (host
// indices). The candidate generator keeps one bitset per operator as
// reusable scratch, replacing the per-draw map[int]bool allocations of the
// original enumeration code.
type bitset []uint64

// newBitset returns a bitset able to hold values in [0, n).
func newBitset(n int) bitset {
	return make(bitset, bitsetWords(n))
}

// bitsetWords is the length of a bitset holding values in [0, n).
func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// clear zeroes the whole set.
func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}

// orWith unions o into b. Both must have the same capacity.
func (b bitset) orWith(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

// orWithout unions o, less the element x, into b. Both must have the same
// capacity.
func (b bitset) orWithout(o bitset, x int) {
	w, bit := x>>6, uint64(1)<<uint(x&63)
	for i := range b {
		m := o[i]
		if i == w {
			m &^= bit
		}
		b[i] |= m
	}
}

// candIndex finds placements among a search's kept ones: an
// open-addressing table of indices into them, probed linearly from the
// placement's hash, where a hash match counts only once the placements
// are equal. Sized to at most half full for the budget it was made for,
// it never grows, and neither a lookup nor an insert allocates.
type candIndex []int32 // index into the kept placements + 1; 0 is a free slot

// newCandIndex returns an index for up to n placements.
func newCandIndex(n int) candIndex {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return make(candIndex, size)
}

// lookup returns the index of p among kept, or -1 and the free slot that
// add takes to enter p.
func (x candIndex) lookup(kept []sim.Placement, p sim.Placement) (i, slot int) {
	mask := len(x) - 1
	for s := int(placementHash(p)) & mask; ; s = (s + 1) & mask {
		k := x[s]
		if k == 0 {
			return -1, s
		}
		if slices.Equal(kept[k-1], p) {
			return int(k - 1), s
		}
	}
}

// add enters kept index i at the free slot lookup returned.
func (x candIndex) add(slot, i int) { x[slot] = int32(i + 1) }

// placementHash mixes a placement's hosts into 64 bits.
func placementHash(p sim.Placement) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range p {
		h = (h ^ uint64(v)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return h
}
