package placement

import (
	"encoding/binary"

	"costream/internal/sim"
)

// bitset is a fixed-capacity set of small non-negative integers (host
// indices). The candidate generator keeps one bitset per operator as
// reusable scratch, replacing the per-draw map[int]bool allocations of the
// original enumeration code.
type bitset []uint64

// newBitset returns a bitset able to hold values in [0, n).
func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

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

// appendPlacementKey appends a compact binary encoding of p to dst and
// returns the extended slice. Host indices are varint-encoded, so the key
// is a few bytes per operator (one byte for clusters under 128 hosts)
// instead of the decimal fmt.Sprint rendering previously used for
// candidate dedup. Varints are self-delimiting, so the encoding is
// injective for placements of one query.
func appendPlacementKey(dst []byte, p sim.Placement) []byte {
	for _, h := range p {
		dst = binary.AppendUvarint(dst, uint64(h))
	}
	return dst
}
