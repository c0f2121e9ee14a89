package apps

import (
	"math/bits"
	"testing"
	"testing/quick"

	"cni/internal/apps/spmat"
)

// findPos is the reference for Cholesky.nextPos: it binary-searches row
// in column col's structure and returns the first value index whose row
// is not below it.
func findPos(sy *spmat.Symbolic, col, row int32) int32 {
	lo, hi := sy.ColPtr[col], sy.ColPtr[col+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if sy.RowIdx[mid] < row {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// setRows lists the set bits of mask in ascending order, offset by base.
func setRows(mask uint64, base int32) []int32 {
	var rows []int32
	for mask != 0 {
		rows = append(rows, base+int32(bits.TrailingZeros64(mask)))
		mask &= mask - 1
	}
	return rows
}

// TestNextPosMatchesBinarySearch checks the merge walk cmod uses: for
// any sorted column structure and any ascending run of rows, walking
// forward from the column start returns the positions a binary search
// per row finds. Column 1 is the one searched; columns 0 and 2 hold
// rows below every query, so a walk that left its column would show.
func TestNextPosMatchesBinarySearch(t *testing.T) {
	f := func(colMask, queryMask uint64) bool {
		col := setRows(colMask, 8)
		sy := &spmat.Symbolic{N: 3, ColPtr: []int32{0, 3, int32(3 + len(col)), int32(6 + len(col))}}
		sy.RowIdx = append(append([]int32{0, 1, 2}, col...), 0, 1, 2)
		ch := &Cholesky{Sy: sy}
		pos := sy.ColPtr[1]
		for _, row := range setRows(queryMask, 8) {
			pos = ch.nextPos(1, pos, row)
			if pos != findPos(sy, 1, row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
