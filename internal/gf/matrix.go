package gf

import "fmt"

// Matrix is a dense matrix over a GF(2^k) field. Rows are stored
// contiguously.
type Matrix struct {
	f     *Field
	rows  int
	cols  int
	cells []Elem
}

// NewMatrix returns a zero rows x cols matrix over field f.
func NewMatrix(f *Field, rows, cols int) *Matrix {
	return &Matrix{f: f, rows: rows, cols: cols, cells: make([]Elem, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) Elem { return m.cells[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v Elem) { m.cells[i*m.cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.f, m.rows, m.cols)
	copy(c.cells, m.cells)
	return c
}

// Vandermonde returns the n x w Vandermonde matrix M with M[i][j] =
// alpha_i^j where alpha_i = g^(i+1) are distinct non-zero field elements
// (Definition 1 of the paper, 0-indexed exponents). It requires n < Order-1
// so the alpha_i are distinct.
func Vandermonde(f *Field, n, w int) *Matrix {
	if n >= f.order-1 {
		panic(fmt.Sprintf("gf: Vandermonde needs n < %d, got %d", f.order-1, n))
	}
	m := NewMatrix(f, n, w)
	for i := 0; i < n; i++ {
		alpha := f.Exp(i + 1)
		v := Elem(1)
		for j := 0; j < w; j++ {
			m.Set(i, j, v)
			v = f.Mul(v, alpha)
		}
	}
	return m
}

// MulVec returns M * x for a column vector x of length Cols.
func (m *Matrix) MulVec(x []Elem) []Elem {
	if len(x) != m.cols {
		panic(fmt.Sprintf("gf: MulVec dimension mismatch: %d != %d", len(x), m.cols))
	}
	out := make([]Elem, m.rows)
	for i := 0; i < m.rows; i++ {
		var acc Elem
		row := m.cells[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			if v != 0 && x[j] != 0 {
				acc ^= m.f.Mul(v, x[j])
			}
		}
		out[i] = acc
	}
	return out
}

// TransposeMulVec returns M^T * x for a column vector x of length Rows.
// This computes, for each output j, sum_i M[i][j]*x[i] — the combination the
// bit-extraction procedure applies to the exchanged random values.
func (m *Matrix) TransposeMulVec(x []Elem) []Elem {
	if len(x) != m.rows {
		panic(fmt.Sprintf("gf: TransposeMulVec dimension mismatch: %d != %d", len(x), m.rows))
	}
	out := make([]Elem, m.cols)
	for i := 0; i < m.rows; i++ {
		if x[i] == 0 {
			continue
		}
		row := m.cells[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			if v != 0 {
				out[j] ^= m.f.Mul(v, x[i])
			}
		}
	}
	return out
}

// Rank returns the rank of the matrix, computed by Gaussian elimination on a
// copy.
func (m *Matrix) Rank() int {
	w := m.Clone()
	rank := 0
	for col := 0; col < w.cols && rank < w.rows; col++ {
		pivot := -1
		for r := rank; r < w.rows; r++ {
			if w.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		w.swapRows(pivot, rank)
		inv := w.f.Inv(w.At(rank, col))
		w.scaleRow(rank, inv)
		for r := 0; r < w.rows; r++ {
			if r != rank && w.At(r, col) != 0 {
				w.addScaledRow(r, rank, w.At(r, col))
			}
		}
		rank++
	}
	return rank
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.cells[i*m.cols : (i+1)*m.cols]
	rj := m.cells[j*m.cols : (j+1)*m.cols]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

func (m *Matrix) scaleRow(i int, v Elem) {
	row := m.cells[i*m.cols : (i+1)*m.cols]
	for c := range row {
		row[c] = m.f.Mul(row[c], v)
	}
}

// addScaledRow does row[i] += factor * row[j].
func (m *Matrix) addScaledRow(i, j int, factor Elem) {
	ri := m.cells[i*m.cols : (i+1)*m.cols]
	rj := m.cells[j*m.cols : (j+1)*m.cols]
	for c := range ri {
		ri[c] ^= m.f.Mul(factor, rj[c])
	}
}
