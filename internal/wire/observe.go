package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/words"
)

// This file is the one codec of the /v1/observe request body,
//
//	{"rows": [[s, s, …], …]}
//
// shared by projfreqd (decode), the router (decode, then encode each
// per-node part) and nothing else: the body never exists as a
// [][]uint16 anywhere on the ingest path.

// AnySymbol is the alphabet bound to decode with when the caller does
// not know the alphabet: every uint16 symbol passes it.
const AnySymbol = 1 << 16

// AppendObserve appends the observe body for b to dst — the bytes
// encoding/json produces for struct{ Rows [][]uint16 `json:"rows"` }.
func AppendObserve(dst []byte, b *words.Batch) []byte {
	n, d := b.Len(), b.Dim()
	// Exact when every symbol is one digit, the common case.
	dst = slices.Grow(dst, 2*n*d+2*n+len(`{"rows":[]}`))
	dst = append(dst, `{"rows":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, x := range b.Row(i) {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(x), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, `]}`...)
}

// ObserveDecoder is the reusable decode state of an observe body: the
// raw body bytes and the batch the rows land in. Pooling decoders
// across requests makes a steady observe load allocation-free on the
// decode path. The zero value is ready to use.
type ObserveDecoder struct {
	buf   bytes.Buffer
	batch words.Batch
}

// Decode scans an observe body into the decoder's batch, writing
// symbols directly into the batch's flat backing array — no per-row
// slice, no decoder tokens, no number strings materialize anywhere on
// the ingest path. Rows are validated as they decode: every row has d
// symbols, every symbol lies in [q]. With d == 0 the dimension is taken
// from the first row (which must then exist and be non-empty); with
// q == AnySymbol the alphabet check passes every symbol. A body
// without rows decodes as an empty batch when d is known. The returned
// batch aliases the decoder and is valid until its next Decode.
//
// The scanner holds the whole body (bounded by the caller's
// MaxBytesReader) and walks it once; bytes after the closing brace are
// ignored, as encoding/json's Decoder ignores them. Deliberate
// simplifications against a full JSON parser: field names are matched
// byte-literally, so a "rows" key spelled with JSON escape sequences
// or in another case is treated as unknown; and unknown fields are
// skipped structurally (strings, nesting) but neither their names nor
// their contents are validated. Clients encoding with AppendObserve or
// encoding/json produce neither shape. It is stricter than
// encoding/json in two places: a second "rows" key is refused rather
// than resolved, and a symbol must be an unsigned integer literal
// (null is not 0).
//
// Once d is known (given, or taken from the first row), each row is
// first tried as a compact row, d one-digit symbols joined by bare
// commas, which is what AppendObserve and encoding/json write for
// symbols below 10. That scan reads 8 bytes (four symbols) a step. Any
// other byte sends the row, from its '[', to the general scanner, so
// the general scanner alone decides what else is accepted and words
// every error.
func (dec *ObserveDecoder) Decode(body io.Reader, d, q int) (*words.Batch, error) {
	dec.buf.Reset()
	if _, err := dec.buf.ReadFrom(body); err != nil {
		return nil, fmt.Errorf("decoding rows: %w", err)
	}
	return dec.decode(d, q, true)
}

// decode scans the buffered body; compact selects the compact-row
// scan, which tests turn off to hold the general scanner up as its
// reference.
func (dec *ObserveDecoder) decode(d, q int, compact bool) (*words.Batch, error) {
	syms := dec.batch.Symbols()[:0]
	s := jsonScan{b: dec.buf.Bytes()}
	s.skipWS()
	if !s.eat('{') {
		return nil, errors.New("decoding rows: body must be a JSON object")
	}
	s.skipWS()
	rowsSeen := false
	for more := !s.eat('}'); more; {
		s.skipWS()
		key, err := s.scanString()
		if err != nil {
			return nil, fmt.Errorf("decoding rows: %w", err)
		}
		s.skipWS()
		if !s.eat(':') {
			return nil, fmt.Errorf("decoding rows: missing ':' after %q", key)
		}
		s.skipWS()
		if string(key) == "rows" {
			if rowsSeen {
				return nil, errors.New(`decoding rows: duplicate "rows" field`)
			}
			rowsSeen = true
			if syms, d, err = s.scanRows(syms, d, q, compact); err != nil {
				return nil, err
			}
		} else if err := s.skipValue(); err != nil {
			return nil, fmt.Errorf("decoding rows: %w", err)
		}
		s.skipWS()
		switch {
		case s.eat(','):
		case s.eat('}'):
			more = false
		default:
			return nil, errors.New("decoding rows: malformed object")
		}
	}
	if d == 0 {
		return nil, errors.New("empty batch: no row to take the dimension from")
	}
	dec.batch.Bind(d, syms)
	return &dec.batch, nil
}

// jsonScan is a minimal allocation-free scanner over a complete JSON
// body, providing exactly what the observe decoder needs.
type jsonScan struct {
	b   []byte
	pos int
}

// scanRows parses the [[…], …] rows array, appending its symbols to
// syms; the scanner is positioned at the start of the value. It
// returns the grown slice and the row dimension (d, or the first row's
// length when d is 0 and the array has a row). With compact set, a
// row is first tried by compactRow once d is known.
func (s *jsonScan) scanRows(syms []uint16, d, q int, compact bool) ([]uint16, int, error) {
	if s.eatLiteral("null") {
		// "rows": null — what a client marshalling a nil slice sends;
		// accepted as an empty batch, as encoding/json does.
		return syms, d, nil
	}
	if !s.eat('[') {
		return nil, 0, errors.New("rows must be an array")
	}
	// A compact row's symbols are single digits, so [min(q, 10)] is
	// both its digit range and its alphabet.
	digits := words.NewLaneCheck(min(q, 10))
	for i := 0; ; i++ {
		s.skipWS()
		if s.eat(']') {
			return syms, d, nil
		}
		if i > 0 {
			if !s.eat(',') {
				return nil, 0, fmt.Errorf("row %d: malformed array", i)
			}
			s.skipWS()
		}
		if !s.eat('[') {
			return nil, 0, fmt.Errorf("row %d must be an array", i)
		}
		if compact && d > 0 {
			var ok bool
			if syms, ok = s.compactRow(syms, d, digits); ok {
				continue
			}
		}
		j := 0
		s.skipWS()
		for !s.eat(']') {
			if j > 0 {
				if !s.eat(',') {
					return nil, 0, fmt.Errorf("row %d: malformed array", i)
				}
				s.skipWS()
			}
			v, err := s.scanSymbol()
			if err != nil {
				return nil, 0, fmt.Errorf("row %d symbol %d: %w", i, j, err)
			}
			if int(v) >= q {
				return nil, 0, fmt.Errorf("row %d: symbol %d outside alphabet [%d]", i, v, q)
			}
			if d > 0 && j >= d {
				return nil, 0, fmt.Errorf("row %d has more than %d symbols", i, d)
			}
			syms = append(syms, v)
			j++
			s.skipWS()
		}
		if d == 0 {
			if j == 0 {
				return nil, 0, errors.New("zero-length rows")
			}
			d = j
		}
		if j != d {
			return nil, 0, fmt.Errorf("row %d has %d symbols, want %d", i, j, d)
		}
	}
}

// A compact row word is 8 body bytes read little-endian: four 16-bit
// lanes, each a digit in its low byte and its separator in the high
// byte.
const (
	// laneLowBytes selects each lane's digit byte.
	laneLowBytes = 0x00ff_00ff_00ff_00ff
	// laneZeros is '0' in each lane: a lane's digit minus it is the
	// symbol, so the word minus laneZeros is the row's LE symbol word.
	laneZeros = 0x0030_0030_0030_0030
	// laneCommas is ',' after each of the four digits, and rowEnd is
	// the last word of a row whose d is a multiple of four.
	laneCommas = 0x2c00_2c00_2c00_2c00
	rowEnd     = 0x5d00_2c00_2c00_2c00
)

// compactRow decodes the row after its '[' when it is d one-digit
// symbols in [digits] joined by bare commas and closed by ']', reading
// four symbols a step. It appends them to syms and reports true; on any
// other byte it reports false with the scanner where it was and syms
// at its old length, for the general scanner to decode the row.
//
// A lane whose digit byte is below '0' borrows from the lane above
// when laneZeros is taken from the word, but the lowest such lane
// wraps to ≥ 0xffd0 and is flagged, so a borrow never hides a bad byte.
func (s *jsonScan) compactRow(syms []uint16, d int, digits words.LaneCheck) ([]uint16, bool) {
	b := s.b[s.pos:]
	if len(b) < 2*d {
		return syms, false
	}
	n := len(syms)
	grown := slices.Grow(syms, d)
	row := grown[n : n+d]
	var flags uint64
	i := 0
	for ; i+4 <= d; i += 4 {
		w := binary.LittleEndian.Uint64(b[2*i:])
		seps := uint64(laneCommas)
		if i+4 == d {
			seps = rowEnd
		}
		v := w&laneLowBytes - laneZeros
		flags |= w&^laneLowBytes ^ seps | digits.Flags(v)
		r := row[i : i+4 : i+4]
		r[0], r[1], r[2], r[3] = uint16(v), uint16(v>>16), uint16(v>>32), uint16(v>>48)
	}
	for ; i < d; i++ {
		sep := byte(',')
		if i+1 == d {
			sep = ']'
		}
		v := uint64(b[2*i]) - '0'
		flags |= uint64(b[2*i+1]^sep) | digits.Flags(v)
		row[i] = uint16(v)
	}
	if flags != 0 {
		return grown[:n], false
	}
	s.pos += 2 * d
	return grown[:n+d], true
}

func (s *jsonScan) skipWS() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte and reports whether it did.
func (s *jsonScan) eat(c byte) bool {
	if s.pos < len(s.b) && s.b[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// eatLiteral consumes the literal if it is next and ends at a value
// boundary.
func (s *jsonScan) eatLiteral(lit string) bool {
	end := s.pos + len(lit)
	if end > len(s.b) || string(s.b[s.pos:end]) != lit {
		return false
	}
	if end < len(s.b) {
		switch s.b[end] {
		case ',', ']', '}', ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	s.pos = end
	return true
}

// scanString consumes a JSON string and returns its raw contents
// (escape sequences unprocessed) as a view into the body.
func (s *jsonScan) scanString() ([]byte, error) {
	if s.pos >= len(s.b) || s.b[s.pos] != '"' {
		return nil, errors.New("malformed string")
	}
	s.pos++
	start := s.pos
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case '\\':
			s.pos += 2
		case '"':
			str := s.b[start:s.pos]
			s.pos++
			return str, nil
		default:
			s.pos++
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// scanSymbol consumes one row symbol: an unsigned decimal integer
// literal (no leading zeros, as JSON requires) that fits a uint16. Any
// other value — negative, fractional, exponent form, or a non-number —
// is an error naming what it saw.
func (s *jsonScan) scanSymbol() (uint16, error) {
	if s.pos >= len(s.b) {
		return 0, io.ErrUnexpectedEOF
	}
	c := s.b[s.pos]
	if c < '0' || c > '9' {
		if c == '-' || c == '+' || c == '.' {
			return 0, errors.New("not an unsigned integer")
		}
		return 0, errors.New("not a number")
	}
	start := s.pos
	v := 0
	for s.pos < len(s.b) {
		c = s.b[s.pos]
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int(c-'0')
		if v > 1<<16-1 {
			return 0, errors.New("value out of uint16 range")
		}
		s.pos++
	}
	if s.pos-start > 1 && s.b[start] == '0' {
		return 0, errors.New("leading zero")
	}
	if s.pos < len(s.b) {
		switch s.b[s.pos] {
		case '.', 'e', 'E':
			return 0, errors.New("not an unsigned integer")
		}
	}
	return uint16(v), nil
}

// skipValue consumes one JSON value: a string, a bracketed structure
// (with strings inside handled, so brackets in text do not confuse
// nesting), or a scalar run.
func (s *jsonScan) skipValue() error {
	if s.pos >= len(s.b) {
		return io.ErrUnexpectedEOF
	}
	switch s.b[s.pos] {
	case '"':
		_, err := s.scanString()
		return err
	case '[', '{':
		depth := 0
		for s.pos < len(s.b) {
			switch s.b[s.pos] {
			case '"':
				if _, err := s.scanString(); err != nil {
					return err
				}
				continue
			case '[', '{':
				depth++
			case ']', '}':
				depth--
			}
			s.pos++
			if depth == 0 {
				return nil
			}
		}
		return io.ErrUnexpectedEOF
	default:
		for s.pos < len(s.b) {
			switch s.b[s.pos] {
			case ',', ']', '}', ' ', '\t', '\n', '\r':
				return nil
			}
			s.pos++
		}
		return nil
	}
}
