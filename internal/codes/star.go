package codes

import (
	"fmt"

	"repro/internal/combin"
	"repro/internal/words"
)

// Star implements the star_Q operation of Definition 3.1: given a
// binary word y of weight k, star_Q(y) is the set of all Q^k words
// over [Q]^d whose support is contained in supp(y). The enumerator is
// streaming — child words are produced one at a time by an odometer
// over the support positions — because instances in Section 4 have
// Q^k child words per codeword and must never be materialized at once.
type Star struct {
	q       int
	support []int
	d       int
}

// NewStar returns the star_Q enumerator for codeword y.
func NewStar(y Codeword, q int) (*Star, error) {
	if q < 2 || q > words.MaxAlphabet {
		return nil, fmt.Errorf("codes: alphabet size %d out of range", q)
	}
	return &Star{q: q, support: y.Support(), d: y.Dim()}, nil
}

// Count returns |star_Q(y)| = Q^k, or an error if it overflows uint64.
func (s *Star) Count() (uint64, error) {
	return combin.Pow(s.q, len(s.support))
}

// Enumerate invokes fn with every child word z ∈ star_Q(y) in
// canonical (base-Q odometer) order. The word passed to fn is reused
// across calls; clone to retain. Enumeration stops early if fn
// returns false.
func (s *Star) Enumerate(fn func(words.Word) bool) {
	k := len(s.support)
	w := make(words.Word, s.d)
	digits := make([]int, k)
	for {
		if !fn(w) {
			return
		}
		// Advance the odometer over the support positions.
		i := k - 1
		for i >= 0 {
			digits[i]++
			if digits[i] < s.q {
				w[s.support[i]] = uint16(digits[i])
				break
			}
			digits[i] = 0
			w[s.support[i]] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}

// StarSource streams star_Q(T) = ∪_{y∈T} star_Q(y) for a set T of
// codewords — exactly the input array Alice builds in the reductions
// of Sections 4 and 5. Rows appear codeword by codeword, child words
// in canonical order; the stream is resettable so an instance can be
// replayed into several summaries.
type StarSource struct {
	q     int
	d     int
	stars []*Star

	cur     int
	digits  []int
	word    words.Word
	done    bool
	started bool
}

// NewStarSource builds the streaming union of star_Q over the given
// codewords (Alice's set T).
func NewStarSource(t []Codeword, q int) (*StarSource, error) {
	if len(t) == 0 {
		return nil, fmt.Errorf("codes: empty codeword set")
	}
	d := t[0].Dim()
	stars := make([]*Star, len(t))
	for i, y := range t {
		if y.Dim() != d {
			return nil, fmt.Errorf("codes: codeword %d has dimension %d, want %d", i, y.Dim(), d)
		}
		s, err := NewStar(y, q)
		if err != nil {
			return nil, err
		}
		stars[i] = s
	}
	src := &StarSource{q: q, d: d, stars: stars}
	src.Reset()
	return src, nil
}

// Dim returns the word length d.
func (s *StarSource) Dim() int { return s.d }

// Alphabet returns Q.
func (s *StarSource) Alphabet() int { return s.q }

// TotalRows returns Σ_y Q^{weight(y)}, the number of rows the stream
// yields (counting multiplicity; the union is streamed per-codeword,
// matching the instance sizes reported in Table 1).
func (s *StarSource) TotalRows() (uint64, error) {
	var total uint64
	for _, st := range s.stars {
		c, err := st.Count()
		if err != nil {
			return 0, err
		}
		next := total + c
		if next < total {
			return 0, fmt.Errorf("codes: total row count overflows uint64")
		}
		total = next
	}
	return total, nil
}

// Reset rewinds the stream.
func (s *StarSource) Reset() {
	s.cur = 0
	s.done = false
	s.started = false
	s.word = make(words.Word, s.d)
	s.primeCurrent()
}

func (s *StarSource) primeCurrent() {
	if s.cur >= len(s.stars) {
		s.done = true
		return
	}
	st := s.stars[s.cur]
	for i := range s.word {
		s.word[i] = 0
	}
	s.digits = s.digits[:0]
	for range st.support {
		s.digits = append(s.digits, 0)
	}
}

// advance moves the odometer to the next child word, rolling over to
// the next codeword's star when the current one is exhausted.
func (s *StarSource) advance() {
	st := s.stars[s.cur]
	i := len(s.digits) - 1
	for i >= 0 {
		s.digits[i]++
		if s.digits[i] < s.q {
			s.word[st.support[i]] = uint16(s.digits[i])
			return
		}
		s.digits[i] = 0
		s.word[st.support[i]] = 0
		i--
	}
	s.cur++
	s.primeCurrent()
}

// Next returns the next row of star_Q(T). The returned word is reused
// between calls; callers that retain it must Clone it before the next
// call.
func (s *StarSource) Next() (words.Word, bool) {
	if s.done {
		return nil, false
	}
	if s.started {
		s.advance()
		if s.done {
			return nil, false
		}
	}
	s.started = true
	return s.word, true
}
