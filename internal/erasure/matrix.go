package erasure

import "fmt"

// matrix is a dense byte matrix over GF(2^8), row-major.
type matrix struct {
	rows, cols int
	data       []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.data[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.data[r*m.cols+c] = v }
func (m *matrix) row(r int) []byte     { return m.data[r*m.cols : (r+1)*m.cols] }

// vandermonde returns the rows-by-cols matrix with entry (r, c) = r^c,
// any cols rows of which are linearly independent for distinct r.
func vandermonde(rows, cols int) *matrix {
	m := newMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.set(r, c, gfExp(byte(r), c))
		}
	}
	return m
}

// mul returns m × other.
func (m *matrix) mul(other *matrix) *matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("erasure: matrix dims %dx%d × %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := newMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(r, k)
			if a == 0 {
				continue
			}
			mulSliceXor(a, other.row(k), out.row(r))
		}
	}
	return out
}

// subMatrix returns the sub-matrix of the given rows (all columns).
func (m *matrix) subRows(rows []int) *matrix {
	out := newMatrix(len(rows), m.cols)
	for i, r := range rows {
		copy(out.row(i), m.row(r))
	}
	return out
}

// invert returns the inverse via Gauss-Jordan elimination, or an error
// when the matrix is singular.
func (m *matrix) invert() (*matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("erasure: cannot invert %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := newMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(work.row(r)[:n], m.row(r))
		work.set(r, n+r, 1)
	}
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("erasure: singular matrix")
		}
		if pivot != col {
			pr, cr := work.row(pivot), work.row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
		}
		// Scale the pivot row to 1.
		inv := gfInv(work.at(col, col))
		row := work.row(col)
		for i := range row {
			row[i] = gfMul(row[i], inv)
		}
		// Eliminate the column elsewhere.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := work.at(r, col)
			if factor == 0 {
				continue
			}
			mulSliceXor(factor, row, work.row(r))
		}
	}
	out := newMatrix(n, n)
	for r := 0; r < n; r++ {
		copy(out.row(r), work.row(r)[n:])
	}
	return out, nil
}
