package tomo

import "math/big"

// exactSystem is the exact big.Rat solution of A_S·x = y_S, the reference
// System and RankAndIdentifiable are tested against.
type exactSystem struct {
	rank int
	// consistent is false when a reduced row is zero on every link but
	// not in the measurement column: rank [A_S | y] > rank A_S.
	consistent bool
	// ident[j] holds when a reduced row equals e_j on the links, that is
	// when e_j lies in the row space and link j is identifiable; values[j]
	// is then that row's measurement entry, the link's metric.
	ident  []bool
	values []float64
}

// exactEchelon reduces the rows of the paths idx, augmented by the
// measurement column y when y is non-nil, to reduced row echelon form over
// big.Rat, pivoting on link columns only.
func exactEchelon(pm *PathMatrix, idx []int, y []float64) exactSystem {
	links := pm.NumLinks()
	width := links
	if y != nil {
		width++
	}
	rows := make([][]*big.Rat, len(idx))
	for r, i := range idx {
		row := make([]*big.Rat, width)
		for j := range row {
			row[j] = new(big.Rat)
		}
		cols, _ := pm.SparseRow(i)
		for _, j := range cols {
			row[j].SetInt64(1)
		}
		if y != nil {
			row[links].SetFloat64(y[r])
		}
		rows[r] = row
	}
	rank := 0
	f, t := new(big.Rat), new(big.Rat)
	for col := 0; col < links && rank < len(rows); col++ {
		p := rank
		for p < len(rows) && rows[p][col].Sign() == 0 {
			p++
		}
		if p == len(rows) {
			continue
		}
		rows[rank], rows[p] = rows[p], rows[rank]
		prow := rows[rank]
		f.Inv(prow[col])
		for j := col; j < width; j++ {
			prow[j].Mul(prow[j], f)
		}
		for r, row := range rows {
			if r == rank || row[col].Sign() == 0 {
				continue
			}
			f.Set(row[col])
			for j := col; j < width; j++ {
				if prow[j].Sign() != 0 {
					row[j].Sub(row[j], t.Mul(f, prow[j]))
				}
			}
		}
		rank++
	}
	sol := exactSystem{rank: rank, consistent: true, ident: make([]bool, links), values: make([]float64, links)}
	for _, row := range rows {
		nonzero, at := 0, -1
		for j := 0; j < links; j++ {
			if row[j].Sign() != 0 {
				nonzero, at = nonzero+1, j
			}
		}
		switch {
		case nonzero == 0 && y != nil && row[links].Sign() != 0:
			sol.consistent = false
		case nonzero == 1:
			sol.ident[at] = true
			if y != nil {
				sol.values[at], _ = row[links].Float64()
			}
		}
	}
	return sol
}

// count returns the number of true entries.
func count(flags []bool) int {
	n := 0
	for _, ok := range flags {
		if ok {
			n++
		}
	}
	return n
}
