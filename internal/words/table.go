package words

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// RowSource is a stream of rows in the paper's computational model:
// the data A is observed once, row by row, before any query arrives.
// Next returns the next row, or false when the stream is exhausted.
// The returned Word may be reused by the source between calls; callers
// that retain rows must Clone them.
type RowSource interface {
	// Dim returns the number of columns d.
	Dim() int
	// Alphabet returns the alphabet size Q.
	Alphabet() int
	// Next returns the next row of the stream.
	Next() (Word, bool)
}

// Resettable is implemented by row sources that can replay their
// stream from the beginning, which the experiment drivers use to feed
// the same instance to several summaries.
type Resettable interface {
	Reset()
}

// Drain pushes every row of src into observe and returns the number
// of rows streamed.
func Drain(src RowSource, observe func(Word)) int {
	n := 0
	for {
		w, ok := src.Next()
		if !ok {
			return n
		}
		observe(w)
		n++
	}
}

// Collect materializes up to max rows from src into a Table. A
// negative max collects the entire stream.
func Collect(src RowSource, max int) *Table {
	t := NewTable(src.Dim(), src.Alphabet())
	for max < 0 || t.NumRows() < max {
		w, ok := src.Next()
		if !ok {
			break
		}
		t.Append(w)
	}
	return t
}

// Table is an in-memory n×d array over [Q], stored row-major in a
// single flat slice. It is the Θ(nd) "retain everything" baseline of
// Section 3.1 and the backing store for exact reference computations.
type Table struct {
	d    int
	q    int
	data []uint16
}

// NewTable returns an empty table with d columns over alphabet [q].
func NewTable(d, q int) *Table {
	if d < 0 {
		panic("words: negative dimension")
	}
	if q < 2 || q > MaxAlphabet {
		panic(fmt.Sprintf("words: alphabet size %d out of range", q))
	}
	return &Table{d: d, q: q}
}

// Dim returns the number of columns d.
func (t *Table) Dim() int { return t.d }

// Alphabet returns the alphabet size Q.
func (t *Table) Alphabet() int { return t.q }

// NumRows returns the number of rows appended so far.
func (t *Table) NumRows() int {
	if t.d == 0 {
		return 0
	}
	return len(t.data) / t.d
}

// Append adds a copy of row w to the table.
func (t *Table) Append(w Word) {
	if len(w) != t.d {
		panic(fmt.Sprintf("words: row length %d != dimension %d", len(w), t.d))
	}
	t.data = append(t.data, w...)
}

// AppendBatch adds a copy of every row of b in one flat append — the
// amortized bulk form of Append. It panics if b's dimension differs
// from the table's.
func (t *Table) AppendBatch(b *Batch) {
	if b.Dim() != t.d {
		panic(fmt.Sprintf("words: batch dimension %d != table dimension %d", b.Dim(), t.d))
	}
	t.data = append(t.data, b.Symbols()...)
}

// Row returns row i as a Word aliasing the table's storage; callers
// must not modify it.
func (t *Table) Row(i int) Word {
	return Word(t.data[i*t.d : (i+1)*t.d])
}

// Source returns a resettable RowSource replaying the table's rows.
func (t *Table) Source() RowSource {
	return &tableSource{t: t}
}

// Batch returns the table's rows as a Batch aliasing its storage (no
// copy), so bulk consumers — the batched key pipeline in particular —
// can walk the table without a per-row source loop. Callers must treat
// it as read-only and not retain it across table mutations. It panics
// if the table has zero columns (Batch requires d >= 1).
func (t *Table) Batch() *Batch {
	return BatchOf(t.d, t.data)
}

// SizeBytes returns the in-memory footprint of the row storage, the
// quantity the naïve baseline pays.
func (t *Table) SizeBytes() int { return 2 * len(t.data) }

type tableSource struct {
	t *Table
	i int
}

func (s *tableSource) Dim() int      { return s.t.d }
func (s *tableSource) Alphabet() int { return s.t.q }
func (s *tableSource) Reset()        { s.i = 0 }

func (s *tableSource) Next() (Word, bool) {
	if s.i >= s.t.NumRows() {
		return nil, false
	}
	w := s.t.Row(s.i)
	s.i++
	return w, true
}

// ReadCSV parses a table of comma-separated symbol values, one row per
// line; blank lines and lines starting with '#' are skipped. All rows
// must have the same width and symbols must lie in [q].
func ReadCSV(r io.Reader, q int) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var t *Table
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		w := make(Word, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 16)
			if err != nil {
				return nil, fmt.Errorf("words: line %d field %d: %w", line, i+1, err)
			}
			if int(v) >= q {
				return nil, fmt.Errorf("words: line %d: symbol %d outside alphabet [%d]", line, v, q)
			}
			w[i] = uint16(v)
		}
		if t == nil {
			t = NewTable(len(w), q)
		}
		if len(w) != t.Dim() {
			return nil, fmt.Errorf("words: line %d has %d columns, expected %d", line, len(w), t.Dim())
		}
		t.Append(w)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t == nil {
		t = NewTable(0, q)
	}
	return t, nil
}

// WriteCSV writes the table in the format ReadCSV parses.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 4*t.d)
	for i := 0; i < t.NumRows(); i++ {
		row := t.Row(i)
		buf = buf[:0]
		for j, x := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = appendUint(buf, uint64(x))
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuncSource adapts a generator function to RowSource. The generator
// is called with the running row index and must return (row, true) or
// (nil, false) at end of stream.
type FuncSource struct {
	D int
	Q int
	F func(i int) (Word, bool)
	i int
}

// Dim returns the number of columns d.
func (s *FuncSource) Dim() int { return s.D }

// Alphabet returns the alphabet size Q.
func (s *FuncSource) Alphabet() int { return s.Q }

// Reset rewinds the stream to the beginning.
func (s *FuncSource) Reset() { s.i = 0 }

// Next returns the next generated row.
func (s *FuncSource) Next() (Word, bool) {
	w, ok := s.F(s.i)
	if !ok {
		return nil, false
	}
	s.i++
	return w, true
}

// Concat returns a RowSource that streams each source in turn. All
// sources must agree on dimension and alphabet.
func Concat(srcs ...RowSource) RowSource {
	if len(srcs) == 0 {
		panic("words: Concat needs at least one source")
	}
	d, q := srcs[0].Dim(), srcs[0].Alphabet()
	for _, s := range srcs[1:] {
		if s.Dim() != d || s.Alphabet() != q {
			panic("words: Concat sources disagree on shape")
		}
	}
	return &concatSource{srcs: srcs}
}

type concatSource struct {
	srcs []RowSource
	i    int
}

func (c *concatSource) Dim() int      { return c.srcs[0].Dim() }
func (c *concatSource) Alphabet() int { return c.srcs[0].Alphabet() }

func (c *concatSource) Next() (Word, bool) {
	for c.i < len(c.srcs) {
		if w, ok := c.srcs[c.i].Next(); ok {
			return w, true
		}
		c.i++
	}
	return nil, false
}

func (c *concatSource) Reset() {
	for _, s := range c.srcs {
		if r, ok := s.(Resettable); ok {
			r.Reset()
		} else {
			panic("words: Concat source is not resettable")
		}
	}
	c.i = 0
}
