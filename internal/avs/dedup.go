package avs

import "math/bits"

// dedupTable is the in-scope duplicate filter: an open-addressed set of
// destination IDs with linear probing. Each scope uses a power-of-two
// prefix of at least twice its size (load factor ≤ ½), and is emptied
// afterwards by clearing exactly the slots of the destinations it
// emitted, so a small scope costs O(size) however large the table grew.
// Free slots hold -1; destinations are never negative.
type dedupTable struct {
	// slots is the table of the current scope; slots[:mask+1] is in use.
	slots []int64
	// kept is the retained table while a scope too large to retain runs
	// on a table of its own.
	kept  []int64
	mask  uint64
	shift uint
}

// dedupRetainSlots caps the table kept between scopes (64 KiB, scopes
// of up to 4096 destinations). A larger scope gets a table of its own
// that is dropped when the scope ends, so one hot scope does not pin
// memory for the rest of the run.
const dedupRetainSlots = 1 << 13

const freeSlot = -1

// prepare sizes the table for a scope of up to size destinations. The
// table must be empty.
func (t *dedupTable) prepare(size int64) {
	n := uint64(1) << uint(bits.Len64(uint64(2*size-1)))
	if uint64(len(t.slots)) < n {
		if n > dedupRetainSlots {
			t.kept = t.slots
		}
		t.slots = make([]int64, n)
		for i := range t.slots {
			t.slots[i] = freeSlot
		}
	}
	t.mask = n - 1
	t.shift = 64 - uint(bits.TrailingZeros64(n))
}

// home is v's first probe position (Fibonacci hashing).
func (t *dedupTable) home(v int64) uint64 {
	return (uint64(v) * 0x9E3779B97F4A7C15) >> t.shift
}

// insert adds v and reports whether it was absent.
func (t *dedupTable) insert(v int64) bool {
	for i := t.home(v); ; i = (i + 1) & t.mask {
		switch t.slots[i] {
		case freeSlot:
			t.slots[i] = v
			return true
		case v:
			return false
		}
	}
}

// reset empties the table after a scope that inserted exactly the
// values in dsts, dropping a table that grew past the retention cap.
func (t *dedupTable) reset(dsts []int64) {
	if len(t.slots) > dedupRetainSlots {
		t.slots, t.kept = t.kept, nil
		return
	}
	for _, v := range dsts {
		i := t.home(v)
		for t.slots[i] != v {
			i = (i + 1) & t.mask
		}
		t.slots[i] = freeSlot
	}
}
