package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/words"
)

// observeBodies are the table-test bodies, shared with the fuzz seeds:
// good decodes with d = 3, q = 4; bad must fail with them.
var observeBodies = struct{ good, empty, bad map[string]string }{
	good: map[string]string{
		"plain":         `{"rows":[[0,1,2],[3,3,3]]}`,
		"unknown field": `{"note": {"nested": [1, 2]}, "rows": [[0,1,2], [3,3,3]]}`,
		"trailing data": `{"rows":[[0,1,2],[3,3,3]]} trailing`,
	},
	empty: map[string]string{
		"no fields": `{}`,
		"null rows": `{"rows": null}`,
		"no rows":   `{"rows": []}`,
	},
	bad: map[string]string{
		"not an object":   `[[0,1,2]]`,
		"not json":        `{"rows":`,
		"rows not array":  `{"rows": 7}`,
		"row not array":   `{"rows": [7]}`,
		"short row":       `{"rows": [[0,1]]}`,
		"long row":        `{"rows": [[0,1,2,3]]}`,
		"ragged":          `{"rows":[[1,2,3],[1,2]]}`,
		"zero-width":      `{"rows":[[]]}`,
		"symbol not int":  `{"rows": [[0,1,1.5]]}`,
		"symbol out of q": `{"rows": [[0,1,4]]}`,
		"negative symbol": `{"rows": [[0,1,-1]]}`,
		"null symbol":     `{"rows": [[0,1,null]]}`,
		"leading zero":    `{"rows": [[0,1,01]]}`,
		"rows twice":      `{"rows": [[0,1,2]], "rows": [[0,1,2]]}`,
		"truncated":       `{"rows": [[0,1`,
	},
}

func TestDecodeObserveBatch(t *testing.T) {
	const d, q = 3, 4
	var dec ObserveDecoder
	for name, body := range observeBodies.good {
		b, err := dec.Decode(strings.NewReader(body), d, q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() != 2 || !b.Row(0).Equal(words.Word{0, 1, 2}) || !b.Row(1).Equal(words.Word{3, 3, 3}) {
			t.Fatalf("%s: decoded %d rows: %v", name, b.Len(), b.Symbols())
		}
		// The router's mode: dimension from the first row, any symbol.
		if b, err = dec.Decode(strings.NewReader(body), 0, AnySymbol); err != nil || b.Dim() != d || b.Len() != 2 {
			t.Fatalf("%s with the dimension inferred: %v, %v", name, b, err)
		}
	}
	// Missing or null rows decode as an empty batch (a no-op observe)
	// when the dimension is known, and are refused when it would have
	// to come from a row.
	for name, body := range observeBodies.empty {
		if b, err := dec.Decode(strings.NewReader(body), d, q); err != nil || b.Len() != 0 {
			t.Fatalf("%s: %d rows, %v", name, b.Len(), err)
		}
		if _, err := dec.Decode(strings.NewReader(body), 0, AnySymbol); err == nil {
			t.Fatalf("%s must fail to decode without a dimension", name)
		}
	}
	for name, body := range observeBodies.bad {
		if _, err := dec.Decode(strings.NewReader(body), d, q); err == nil {
			t.Fatalf("%s must fail to decode", name)
		}
	}
	// A wide symbol passes only the open alphabet.
	if b, err := dec.Decode(strings.NewReader(`{"rows":[[65535]]}`), 0, AnySymbol); err != nil || b.Row(0)[0] != 65535 {
		t.Fatalf("65535 under AnySymbol: %v, %v", b, err)
	}
}

// TestAppendObserveMatchesEncodingJSON pins the encoder to the bytes
// clients marshalling the documented struct produce.
func TestAppendObserveMatchesEncodingJSON(t *testing.T) {
	for _, rows := range [][][]uint16{
		{},
		{{7}},
		{{0, 1, 2}, {65535, 10, 100}},
	} {
		d := 3
		if len(rows) > 0 {
			d = len(rows[0])
		}
		b := words.NewBatch(d, len(rows))
		for _, r := range rows {
			b.Append(r)
		}
		want, err := json.Marshal(struct {
			Rows [][]uint16 `json:"rows"`
		}{rows})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendObserve(nil, b); !bytes.Equal(got, want) {
			t.Fatalf("AppendObserve = %s, encoding/json = %s", got, want)
		}
	}
}

// jsonView is what a strict encoding/json walk of an object body says
// about the two things the decoder's comment says it does differently:
// which keys it takes for "rows", and what it leaves unvalidated.
type jsonView struct {
	// foldedRowsKey: some top-level key is one encoding/json folds onto
	// the "rows" field but is not the byte-literal "rows".
	foldedRowsKey bool
	// rowsKeys counts the byte-literal "rows" keys.
	rowsKeys int
	// badSkipped: the body stops being JSON at the name or inside the
	// value of a member the decoder skips.
	badSkipped bool
}

func viewJSONObject(body []byte) jsonView {
	var v jsonView
	jd := json.NewDecoder(bytes.NewReader(body))
	if tok, err := jd.Token(); err != nil || tok != json.Delim('{') {
		return v
	}
	for {
		start := jd.InputOffset()
		tok, err := jd.Token()
		if err != nil {
			v.badSkipped = true // a name no parser accepts; the decoder does not look inside names
			return v
		}
		key, isKey := tok.(string)
		if !isKey {
			return v // the closing brace
		}
		raw := string(bytes.TrimLeft(body[start:jd.InputOffset()], " \t\r\n,"))
		literal := raw == `"rows"`
		if literal {
			v.rowsKeys++
		} else if strings.EqualFold(key, "rows") {
			v.foldedRowsKey = true
		}
		var skip json.RawMessage
		if err := jd.Decode(&skip); err != nil {
			v.badSkipped = !literal
			return v
		}
	}
}

// FuzzDecodeObserve is a differential test of the hand-written scanner
// against encoding/json decoding the documented struct, in both
// directions, plus the codec's own round trip. The only disagreements
// it tolerates are the ones Decode's comment lists.
func FuzzDecodeObserve(f *testing.F) {
	for _, set := range []map[string]string{observeBodies.good, observeBodies.empty, observeBodies.bad} {
		for _, body := range set {
			f.Add([]byte(body), uint8(3), uint16(4))
			f.Add([]byte(body), uint8(0), uint16(0))
		}
	}
	f.Add([]byte(`{"Rows":[[9]],"rows":[[1]]}`), uint8(1), uint16(0))
	f.Add([]byte(`{"x":tru,"rows":[[1]]}`), uint8(1), uint16(2))
	f.Add([]byte(`{"rows":[[1]]}`), uint8(1), uint16(2))
	for _, body := range compactRowBodies {
		f.Add([]byte(body), uint8(16), uint16(3))
		f.Add([]byte(body), uint8(0), uint16(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, dRaw uint8, qRaw uint16) {
		d := int(dRaw % 24) // 0: take the dimension from the first row
		q := AnySymbol
		if qRaw != 0 {
			q = int(qRaw) + 1
		}
		var dec ObserveDecoder
		got, gotErr := dec.Decode(bytes.NewReader(body), d, q)
		checkCompactMatchesGeneral(t, body, d, q, got, gotErr)

		// The reference: the decode the router used to do. *uint16 so a
		// null symbol (which encoding/json leaves as 0) shows.
		var ref struct {
			Rows [][]*uint16 `json:"rows"`
		}
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&ref)
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) == 0 || trimmed[0] != '{' {
			if gotErr == nil {
				t.Fatalf("accepted a body that is not an object: %q", body)
			}
			return
		}
		view := viewJSONObject(body)
		if view.foldedRowsKey {
			return // byte-literal key match: the two read different fields
		}
		if refErr != nil {
			if gotErr == nil && !view.badSkipped {
				t.Fatalf("accepted %q, which encoding/json refuses outside any skipped field: %v", body, refErr)
			}
			return
		}
		if view.rowsKeys > 1 {
			if gotErr == nil {
				t.Fatalf("accepted a body with %d \"rows\" fields: %q", view.rowsKeys, body)
			}
			return
		}

		// Is the reference's value a batch this (d, q) admits?
		width := d
		if d == 0 && len(ref.Rows) > 0 {
			width = len(ref.Rows[0])
		}
		valid := width > 0
		var want []uint16
		for _, row := range ref.Rows {
			valid = valid && len(row) == width
			for _, sym := range row {
				if sym == nil || int(*sym) >= q {
					valid = false
				} else {
					want = append(want, *sym)
				}
			}
		}
		if !valid {
			if gotErr == nil {
				t.Fatalf("accepted %q as %d-column rows over [%d]: %v", body, got.Dim(), q, got.Symbols())
			}
			return
		}
		if gotErr != nil {
			t.Fatalf("refused %q (d=%d, q=%d), which encoding/json reads as %v: %v", body, d, q, want, gotErr)
		}
		if got.Dim() != width || !slices.Equal(got.Symbols(), want) {
			t.Fatalf("decoded %q as dim %d %v, encoding/json says dim %d %v", body, got.Dim(), got.Symbols(), width, want)
		}

		// Round trip through the encoder, in both decode modes.
		if got.Len() == 0 {
			return
		}
		want = slices.Clone(want) // got aliases dec, which the next Decode reuses
		enc := AppendObserve(nil, got)
		for _, mode := range [][2]int{{width, q}, {0, AnySymbol}} {
			back, err := dec.Decode(bytes.NewReader(enc), mode[0], mode[1])
			if err != nil || back.Dim() != width || !slices.Equal(back.Symbols(), want) {
				t.Fatalf("round trip of %v through %s (d=%d): %v, %v", want, enc, mode[0], back, err)
			}
		}
	})
}

// compactRowBodies reach every exit of the compact-row scan at d = 16,
// q = 4: whole rows, and a row broken in each way the scan refuses.
var compactRowBodies = map[string]string{
	"compact":        `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[3,3,3,3,3,3,3,3,3,3,3,3,3,3,3,3]]}`,
	"two digits":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,10,2,3,0,1,2,3,0,1,2,3]]}`,
	"whitespace":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1, 2,3,0,1,2,3,0,1,2,3]]}`,
	"space first":    `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[ 0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3]]}`,
	"space last":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3 ]]}`,
	"lane 0 out":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[4,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3]]}`,
	"lane 1 out":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,9,2,3,0,1,2,3,0,1,2,3]]}`,
	"lane 2 out":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,5,3,0,1,2,3]]}`,
	"lane 3 out":     `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,7]]}`,
	"short row":      `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2]]}`,
	"long row":       `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3,0]]}`,
	"negative":       `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,-3,0,1,2,3,0,1,2,3]]}`,
	"fraction":       `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1.2,3,0,1,2,3]]}`,
	"digit below 0":  `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,/,1,2,3,0,1,2,3,0,1,2,3]]}`,
	"digit above 9":  `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,:,1,2,3,0,1,2,3]]}`,
	"truncated":      `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,`,
	"no ']' at end":  `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3`,
	"null":           `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3],[0,1,2,3,null,1,2,3,0,1,2,3,0,1,2,3]]}`,
	"tail d%4 = 3":   `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3,0,1,2],[3,2,1,0,3,2,1,0,3,2,1,0,3,2,1,0,3,2,1]]}`,
	"tail out":       `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3,0,1,2],[3,2,1,0,3,2,1,0,3,2,1,0,3,2,1,0,3,8,1]]}`,
	"tail separator": `{"rows":[[0,1,2,3,0,1,2,3,0,1,2,3,0,1,2,3,0,1,2],[3,2,1,0,3,2,1,0,3,2,1,0,3,2,1,0,3,2;1]]}`,
}

// checkCompactMatchesGeneral holds one Decode result up against the
// general scanner alone on the same body: the same symbols, or the same
// error text.
func checkCompactMatchesGeneral(t *testing.T, body []byte, d, q int, got *words.Batch, gotErr error) {
	t.Helper()
	var ref ObserveDecoder
	ref.buf.Write(body)
	want, wantErr := ref.decode(d, q, false)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%q (d=%d, q=%d): compact scan says %v, general scanner %v", body, d, q, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q (d=%d, q=%d): compact scan fails with %q, general scanner with %q", body, d, q, gotErr, wantErr)
		}
	case got.Dim() != want.Dim() || !slices.Equal(got.Symbols(), want.Symbols()):
		t.Fatalf("%q (d=%d, q=%d): compact scan reads dim %d %v, general scanner dim %d %v",
			body, d, q, got.Dim(), got.Symbols(), want.Dim(), want.Symbols())
	}
}

// TestCompactRowsMatchGeneralScanner runs every exit of the compact-row
// scan, with the dimension given and taken from the first row, at
// alphabets on both sides of 10 (where the digit range, not q, bounds a
// compact symbol).
func TestCompactRowsMatchGeneralScanner(t *testing.T) {
	var dec ObserveDecoder
	for name, body := range compactRowBodies {
		for _, d := range []int{0, 15, 16, 17, 19} {
			for _, q := range []int{0, 1, 2, 4, 9, 10, 11, AnySymbol} {
				got, err := dec.Decode(strings.NewReader(body), d, q)
				t.Run(fmt.Sprintf("%s/d=%d/q=%d", name, d, q), func(t *testing.T) {
					checkCompactMatchesGeneral(t, []byte(body), d, q, got, err)
				})
			}
		}
	}
	if b, err := dec.Decode(strings.NewReader(compactRowBodies["compact"]), 16, 4); err != nil || b.Len() != 2 {
		t.Fatalf("compact body: %v, %v", b, err)
	}
}

// observeRequest is an exact-coldquery ingest request: 4096 rows of 16
// symbols over [4], as AppendObserve writes them.
func observeRequest() []byte {
	const n, d, q = 4096, 16, 4
	src := rng.New(7)
	b := words.NewBatch(d, n)
	for range n {
		row := b.AppendRow()
		for j := range row {
			row[j] = uint16(src.Intn(q))
		}
	}
	return AppendObserve(nil, b)
}

// TestObserveDecodeDoesNotAllocate: a warm decoder, as the daemons pool
// them, decodes a request with no allocation.
func TestObserveDecodeDoesNotAllocate(t *testing.T) {
	body := observeRequest()
	var dec ObserveDecoder
	var r bytes.Reader
	decode := func() {
		r.Reset(body)
		if _, err := dec.Decode(&r, 16, 4); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(20, decode); allocs != 0 {
		t.Fatalf("warm Decode allocated %v times per request", allocs)
	}
}

// BenchmarkDecodeObserve decodes the exact-coldquery request with a warm
// decoder, as projfreqd does (d and q known).
func BenchmarkDecodeObserve(b *testing.B) {
	body := observeRequest()
	var dec ObserveDecoder
	var r bytes.Reader
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		r.Reset(body)
		if _, err := dec.Decode(&r, 16, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*4096*16), "ns/symbol")
}
