package words

import (
	"bytes"
	"testing"

	"repro/internal/rng"
)

// refAppendSymbols is the per-symbol reference encoder.
func refAppendSymbols(dst []byte, syms []uint16) []byte {
	for _, x := range syms {
		dst = append(dst, byte(x), byte(x>>8))
	}
	return dst
}

// refDecodeSymbols is the per-symbol reference decoder: the symbols
// and the index of the first one outside [q] (-1 if none).
func refDecodeSymbols(src []byte, q int) ([]uint16, int) {
	out := make([]uint16, len(src)/2)
	bad := -1
	for i := range out {
		out[i] = uint16(src[2*i]) | uint16(src[2*i+1])<<8
		if bad < 0 && int(out[i]) >= q {
			bad = i
		}
	}
	return out, bad
}

// codecAlphabets are the alphabet sizes the codec is checked at: both
// sides of the SWAR limit 2¹⁵ and the largest alphabet short of the
// unchecked one.
var codecAlphabets = []int{2, 3, 4, 1 << 15, 1<<15 + 1, 65535, MaxAlphabet}

func TestSymbolsLEMatchReference(t *testing.T) {
	src := rng.New(11)
	for n := 0; n <= 9; n++ {
		for trial := range 50 {
			syms := make([]uint16, n)
			for i := range syms {
				if trial%2 == 0 {
					syms[i] = uint16(src.Intn(1 << 16))
				} else {
					syms[i] = uint16(src.Intn(4))
				}
			}
			want := refAppendSymbols([]byte{0xaa}, syms)
			got := AppendSymbolsLE([]byte{0xaa}, syms)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: encoded %x, want %x", n, got, want)
			}
			// body[1:] is misaligned, as the WAL's kind byte leaves it.
			body := got[1:]
			for _, q := range codecAlphabets {
				dst := make([]uint16, n)
				wantSyms, wantBad := refDecodeSymbols(body, q)
				if bad := DecodeSymbolsLE(dst, body, q); bad != wantBad {
					t.Fatalf("n=%d q=%d: first bad %d, reference %d (%v)", n, q, bad, wantBad, syms)
				}
				if !Word(dst).Equal(wantSyms) {
					t.Fatalf("n=%d q=%d: decoded %v, want %v", n, q, dst, wantSyms)
				}
			}
		}
	}
	// A longer destination than the source holds is a programmer error.
	defer func() {
		if recover() == nil {
			t.Fatal("decoding 2 symbols from 3 bytes did not panic")
		}
	}()
	DecodeSymbolsLE(make([]uint16, 2), []byte{1, 0, 2}, 4)
}

// TestSymbolsFirstBadMatchesReference plants out-of-alphabet symbols
// at every position of rows of several widths: the decoder and
// symbolsOutside must name the same first bad symbol as the
// per-symbol loop, at every alphabet size.
func TestSymbolsFirstBadMatchesReference(t *testing.T) {
	src := rng.New(12)
	for _, q := range codecAlphabets[:len(codecAlphabets)-1] {
		for _, d := range []int{1, 3, 4, 5, 16} {
			for rows := 1; rows <= 4; rows++ {
				n := d * rows
				syms := make([]uint16, n)
				for pos := -1; pos < n; pos++ {
					for i := range syms {
						syms[i] = uint16(src.Intn(q))
					}
					if pos >= 0 {
						// The smallest bad symbol, the largest, or one between.
						switch pos % 3 {
						case 0:
							syms[pos] = uint16(q)
						case 1:
							syms[pos] = 0xffff
						default:
							syms[pos] = uint16(q + src.Intn(1<<16-q))
						}
						// A second bad symbol after the first must not win.
						if pos+1 < n {
							syms[n-1] = 0xffff
						}
					}
					_, wantBad := refDecodeSymbols(refAppendSymbols(nil, syms), q)
					dst := make([]uint16, n)
					if bad := DecodeSymbolsLE(dst, refAppendSymbols(nil, syms), q); bad != wantBad {
						t.Fatalf("q=%d d=%d %v: first bad %d, reference %d", q, d, syms, bad, wantBad)
					}
					if bad := symbolsOutside(syms, q); bad != wantBad {
						t.Fatalf("q=%d d=%d %v: symbolsOutside = %d, reference %d", q, d, syms, bad, wantBad)
					}
				}
			}
		}
	}
}

// FuzzSymbolsLE checks the codec against the per-symbol reference on
// arbitrary bytes and alphabets: decode (from an aligned and a
// misaligned source) gives the same symbols and the same accept or
// reject decision, with the same first bad index; encode round-trips
// the bytes; and symbolsOutside agrees.
func FuzzSymbolsLE(f *testing.F) {
	f.Add([]byte{}, uint32(4))
	f.Add([]byte{3, 0, 1, 0, 2, 0, 0, 0, 1, 0}, uint32(4))
	f.Add([]byte{0xff, 0x7f, 0, 0x80, 1, 0, 2, 0}, uint32(1<<15))
	f.Add([]byte{0, 0x80, 0, 0, 0, 0, 0, 0, 0xfe, 0xff}, uint32(1<<15+1))
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff}, uint32(65535))
	f.Fuzz(func(t *testing.T, data []byte, q32 uint32) {
		q := int(q32 % (MaxAlphabet + 2))
		body := data[:len(data)/2*2]
		want, wantBad := refDecodeSymbols(body, q)
		dst := make([]uint16, len(want))
		if bad := DecodeSymbolsLE(dst, body, q); bad != wantBad {
			t.Fatalf("q=%d: first bad %d, reference %d", q, bad, wantBad)
		}
		if !Word(dst).Equal(want) {
			t.Fatalf("q=%d: decoded %v, want %v", q, dst, want)
		}
		shifted := append([]byte{0}, body...)[1:]
		if bad := DecodeSymbolsLE(dst, shifted, q); bad != wantBad || !Word(dst).Equal(want) {
			t.Fatalf("q=%d: misaligned source decoded differently", q)
		}
		if got := AppendSymbolsLE(nil, dst); !bytes.Equal(got, body) {
			t.Fatalf("round trip: %x, want %x", got, body)
		}
		if bad := symbolsOutside(want, q); bad != wantBad {
			t.Fatalf("q=%d: symbolsOutside = %d, reference first bad %d", q, bad, wantBad)
		}
	})
}
