package linalg

import (
	"math"
	"math/big"
)

// RankExact computes the exact rank of a matrix with rational entries using
// fraction-free Gaussian elimination over big.Rat. It is immune to
// round-off and serves as the ground-truth oracle for the floating-point
// kernels in tests. Entries of m are converted exactly, integers directly
// and other values through big.Rat's float64 constructor, so m must hold
// finite values (path matrices are 0/1, which always qualifies).
func RankExact(m *Matrix) int {
	rows, cols := m.Rows(), m.Cols()
	if rows == 0 || cols == 0 {
		return 0
	}
	work := make([][]*big.Rat, rows)
	for i := 0; i < rows; i++ {
		work[i] = make([]*big.Rat, cols)
		for j := 0; j < cols; j++ {
			r := new(big.Rat)
			// SetInt64 skips SetFloat64's normalizing GCD, which would
			// otherwise dominate the cost on 0/1 inputs.
			if v := m.At(i, j); v == math.Trunc(v) && math.Abs(v) < 1<<53 {
				r.SetInt64(int64(v))
			} else {
				r.SetFloat64(v)
			}
			work[i][j] = r
		}
	}

	rank := 0
	f, t := new(big.Rat), new(big.Rat) // elimination temporaries
	for col := 0; col < cols && rank < rows; col++ {
		pivot := -1
		for r := rank; r < rows; r++ {
			if work[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		work[rank], work[pivot] = work[pivot], work[rank]
		prow := work[rank]
		inv := new(big.Rat).Inv(prow[col])
		for r := rank + 1; r < rows; r++ {
			row := work[r]
			if row[col].Sign() == 0 {
				continue
			}
			f.Mul(row[col], inv)
			row[col].SetInt64(0)
			for j := col + 1; j < cols; j++ {
				if prow[j].Sign() == 0 {
					continue
				}
				row[j].Sub(row[j], t.Mul(f, prow[j]))
			}
		}
		rank++
	}
	return rank
}
