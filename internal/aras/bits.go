package aras

import "math/bits"

// ColumnBytes is the size of one packed appliance column: one bit per slot,
// LSB first, so slot t is bit t%8 (value 1<<(t%8)) of byte t/8. It is the
// day-block frame's bitset layout, and SlotsPerDay is a multiple of 8, so a
// column has no padding bits. Day.Appliance, the stream's day blocks, the
// HVAC day input and attack trigger grids all hold appliance columns this
// way, and the helpers below are the only code that reads or writes their
// bits.
const ColumnBytes = SlotsPerDay / 8

// NewColumns allocates n all-off packed columns in one backing array.
func NewColumns(n int) [][]byte {
	buf := make([]byte, n*ColumnBytes)
	cols := make([][]byte, n)
	for a := range cols {
		cols[a] = buf[a*ColumnBytes : (a+1)*ColumnBytes : (a+1)*ColumnBytes]
	}
	return cols
}

// Bit reports slot t of a packed column.
func Bit(col []byte, t int) bool {
	return col[t>>3]&(1<<(t&7)) != 0
}

// SetBit switches slot t of a packed column on or off.
func SetBit(col []byte, t int, on bool) {
	if on {
		col[t>>3] |= 1 << (t & 7)
	} else {
		col[t>>3] &^= 1 << (t & 7)
	}
}

// SetRun switches slots [from, to) of a packed column on, whole bytes at a
// time between the run's partial end bytes. An empty run (from >= to)
// changes nothing.
func SetRun(col []byte, from, to int) {
	for ; from < to && from&7 != 0; from++ {
		col[from>>3] |= 1 << (from & 7)
	}
	for ; from+8 <= to; from += 8 {
		col[from>>3] = 0xff
	}
	for ; from < to; from++ {
		col[from>>3] |= 1 << (from & 7)
	}
}

// OrBits ORs the packed column src into dst, slot by slot.
func OrBits(dst, src []byte) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] |= x
	}
}

// ChangedBits returns byte i of a packed column's change scan: bit j is set
// when slot 8i+j differs from slot 8i+j−1. Slot 0 has no predecessor and
// never counts as a change.
func ChangedBits(col []byte, i int) byte {
	x := col[i]
	prev := x & 1
	if i > 0 {
		prev = col[i-1] >> 7
	}
	return x ^ (x<<1 | prev)
}

// CountBits returns how many slots of a packed column are on.
func CountBits(col []byte) int {
	n := 0
	for _, x := range col {
		n += bits.OnesCount8(x)
	}
	return n
}
