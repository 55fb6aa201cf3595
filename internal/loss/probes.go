package loss

import (
	"fmt"
	"strconv"
)

// probeMatrix is the decode target of the params' "probes" field: its
// UnmarshalJSON writes each outcome straight into packed bits and never
// builds a [][]int. After a well-formed body the bits are already the
// stream Key hashes (see stream).
//
// It accepts, rejects and keys exactly what encoding/json does when it
// decodes the same bytes into Params.Probes:
//
//   - An element is any JSON integer that fits an int, so -0 reads as 0.
//     Floats (1.0, 1e0), strings, bools, objects and arrays are errors.
//     Values other than 0 and 1 decode; Normalize rejects them later, in
//     its fixed check order, so they are kept aside in vals.
//   - A null element keeps the element's earlier value: 0 for a fresh
//     element.
//   - A null or [] row is an empty row and forgets the row's earlier
//     values; a null or [] matrix has no rows and forgets everything.
//   - A repeated probes key decodes over the earlier matrix, as
//     encoding/json reuses a slice: rows and elements the new value does
//     not reach keep their values, and a null element that reaches them
//     again reads them back. So [[1,1],[1,1]] then [[null,0]] gives
//     [[1,0]], and [[1,1]], [[0]], [[0,null]] gives [[0,1]].
//
// To keep those earlier values, each row owns a slot of bits that
// outlives its current length. Rows are laid out in decode order, so a
// single probes value lands at stride = its width, which is the key's
// stream. A row that a later value extends past its slot moves to the
// end, history included.
type probeMatrix struct {
	bits  []uint64    // outcome j of row r is bit spans[r].off+j, MSB-first in its word
	spans []probeSlot // one slot per row ever decoded since the last reset
	end   int         // bits in use; every bit at or past end is 0
	// vals holds, at the same positions as bits, each outcome other than
	// 0 and 1, and 0 elsewhere. It stays nil until such an outcome
	// appears, and then len(vals) == 64*len(bits).
	vals []int

	// Shape of the latest probes value.
	rows      int // row count
	width     int // length of row 0
	ragged    int // first row whose length is not width; -1 when none
	raggedLen int // that row's length
}

// probeSlot is a row's bit range in probeMatrix.bits.
type probeSlot struct{ off, cap int }

// UnmarshalJSON implements json.Unmarshaler. encoding/json has already
// checked data's syntax, matched the field name (case folding included)
// and will reject unknown fields; this only reads the array.
func (m *probeMatrix) UnmarshalJSON(data []byte) error {
	d := probeScan{data: data}
	m.rows, m.width, m.ragged, m.raggedLen = 0, 0, -1, 0
	if m.bits == nil {
		// An outcome takes at least two bytes ("0," or "0]").
		m.bits = make([]uint64, 0, len(data)/128+1)
	}
	switch d.peek() {
	case 'n':
		m.reset()
		return nil
	case '[':
		d.pos++
	default:
		return d.typeError("[][]int")
	}
	if d.peek() == ']' {
		m.reset()
		return nil
	}
	for r := 0; ; r++ {
		n, err := m.row(&d, r)
		if err != nil {
			return err
		}
		if r == 0 {
			m.width = n
		} else if n != m.width && m.ragged < 0 {
			m.ragged, m.raggedLen = r, n
		}
		m.rows = r + 1
		if d.next() {
			return nil
		}
	}
}

// row decodes row r and returns its length.
func (m *probeMatrix) row(d *probeScan, r int) (int, error) {
	if r == len(m.spans) {
		m.spans = append(m.spans, probeSlot{off: m.end})
	}
	switch d.peek() {
	case 'n':
		d.pos += len("null")
		m.clearRow(r)
		return 0, nil
	case '[':
		d.pos++
	default:
		return 0, d.typeError("[]int")
	}
	if d.peek() == ']' {
		d.pos++
		m.clearRow(r)
		return 0, nil
	}
	for j := 0; ; j++ {
		m.fit(r, j+1)
		switch c := d.peek(); {
		case c == 'n':
			d.pos += len("null") // keeps the earlier value
		case c == '-' || '0' <= c && c <= '9':
			v, err := d.int()
			if err != nil {
				return 0, err
			}
			m.set(m.spans[r].off+j, v)
		default:
			return 0, d.typeError("int")
		}
		if d.next() {
			return j + 1, nil
		}
	}
}

// fit makes row r's slot hold at least n outcomes. The last slot grows
// in place; any other moves to the end with its bits.
func (m *probeMatrix) fit(r, n int) {
	s := &m.spans[r]
	if n <= s.cap {
		return
	}
	if s.off+s.cap != m.end {
		old := *s
		s.off = m.end
		m.grow(s.off + old.cap)
		for i := 0; i < old.cap; i++ {
			m.put(s.off+i, m.bit(old.off+i))
		}
		if m.vals != nil {
			copy(m.vals[s.off:], m.vals[old.off:old.off+old.cap])
		}
	}
	s.cap = n
	m.grow(s.off + n)
}

func (m *probeMatrix) grow(end int) {
	m.end = end
	for len(m.bits)*64 < end {
		m.bits = append(m.bits, 0)
		if m.vals != nil {
			m.vals = append(m.vals, make([]int, 64)...)
		}
	}
}

// set stores outcome v at bit p.
func (m *probeMatrix) set(p, v int) {
	m.put(p, v == 1)
	if v == 0 || v == 1 {
		if m.vals != nil {
			m.vals[p] = 0
		}
		return
	}
	if m.vals == nil {
		m.vals = make([]int, 64*len(m.bits))
	}
	m.vals[p] = v
}

// clearRow forgets row r's values.
func (m *probeMatrix) clearRow(r int) {
	s := m.spans[r]
	for i := 0; i < s.cap; i++ {
		m.put(s.off+i, false)
	}
	if m.vals != nil {
		clear(m.vals[s.off : s.off+s.cap])
	}
}

// reset forgets every row.
func (m *probeMatrix) reset() {
	m.bits, m.spans, m.end = m.bits[:0], m.spans[:0], 0
	if m.vals != nil {
		m.vals = m.vals[:0]
	}
}

func (m *probeMatrix) put(p int, one bool) {
	mask := uint64(1) << (63 - p&63)
	if one {
		m.bits[p>>6] |= mask
	} else {
		m.bits[p>>6] &^= mask
	}
}

func (m *probeMatrix) bit(p int) bool { return m.bits[p>>6]<<(p&63)>>63 == 1 }

// check runs the engine's row checks against recv receivers, in their
// fixed order: row by row, the width first, then each outcome.
func (m *probeMatrix) check(recv int) error {
	bad, badLen := m.rows, 0 // first row whose width is not recv
	if m.width != recv {
		bad, badLen = 0, m.width
	} else if m.ragged >= 0 {
		bad, badLen = m.ragged, m.raggedLen
	}
	// The rows before bad are recv long; values past them are stale.
	for r := 0; r < bad && m.vals != nil; r++ {
		for c, v := range m.vals[m.spans[r].off:][:recv] {
			if v != 0 {
				return fmt.Errorf("loss: probe %d outcome %d is %d, want 0 or 1", r, c, v)
			}
		}
	}
	if bad < m.rows {
		return fmt.Errorf("loss: probe %d has %d outcomes, tree has %d receivers", bad, badLen, recv)
	}
	return nil
}

// stream returns the checked rows, each width w, as the key's stream:
// row-major, 64 outcomes per word, MSB-first, with the last partial word
// right-aligned. After a single probes value the rows already lie in
// order at stride w, so this only aligns the last word; rows a repeated
// key moved are copied into place first.
func (m *probeMatrix) stream(w int) []uint64 {
	n := m.rows * w
	inOrder := true
	for r, s := range m.spans[:m.rows] {
		inOrder = inOrder && s.off == r*w
	}
	out := m.bits
	if !inOrder {
		out = make([]uint64, (n+63)/64)
		for r, s := range m.spans[:m.rows] {
			for j := 0; j < w; j++ {
				if p := r*w + j; m.bit(s.off + j) {
					out[p>>6] |= 1 << (63 - p&63)
				}
			}
		}
	}
	out = out[:(n+63)/64]
	if tail := n % 64; tail != 0 {
		out[len(out)-1] >>= 64 - tail
	}
	return out
}

// probeScan reads one JSON value. encoding/json hands an Unmarshaler
// only values it has already checked for syntax, so probeScan does not
// check it again.
type probeScan struct {
	data []byte
	pos  int
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *probeScan) peek() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// next consumes the ',' or ']' after an array element and reports
// whether it closed the array.
func (d *probeScan) next() bool {
	c := d.peek()
	d.pos++
	return c != ','
}

// int reads a number as encoding/json reads it into an int.
func (d *probeScan) int() (int, error) {
	start := d.pos
	if c := d.data[start]; (c == '0' || c == '1') && start+1 < len(d.data) && (d.data[start+1] == ',' || d.data[start+1] == ']') {
		d.pos++
		return int(c - '0'), nil
	}
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && (c < '0' || c > '9') {
			break
		}
		d.pos++
	}
	tok := d.data[start:d.pos]
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("probes: cannot unmarshal number %s into int", tok)
	}
	return int(v), nil
}

// typeError reports the value at the cursor as the wrong JSON type for
// the Go type want.
func (d *probeScan) typeError(want string) error {
	kind := "number"
	switch d.peek() {
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	}
	return fmt.Errorf("probes: cannot unmarshal %s into %s", kind, want)
}
