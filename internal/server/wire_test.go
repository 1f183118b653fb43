package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"srdf/internal/dict"
)

// jsonTermRef is the JSON binding object of t built with json.Marshal —
// the reference the hand-written appender must reproduce byte for byte.
func jsonTermRef(t dict.Term) []byte {
	str := func(s string) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			panic(err)
		}
		return b
	}
	b := []byte(`{"type":`)
	switch t.Kind {
	case dict.KindIRI:
		b = append(b, `"uri"`...)
	case dict.KindBlank:
		b = append(b, `"bnode"`...)
	default:
		b = append(b, `"literal"`...)
	}
	b = append(b, `,"value":`...)
	b = append(b, str(t.Value)...)
	if t.Kind == dict.KindLiteral {
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = append(b, str(t.Lang)...)
		} else if t.Datatype != "" && t.Datatype != dict.XSDString {
			b = append(b, `,"datatype":`...)
			b = append(b, str(t.Datatype)...)
		}
	}
	return append(b, '}')
}

// csvFieldRef is the CSV field of t as encoding/csv writes it in CRLF
// mode.
func csvFieldRef(t dict.Term) string {
	field := t.Value
	if t.Kind == dict.KindBlank {
		field = "_:" + t.Value
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.UseCRLF = true
	if err := cw.Write([]string{field}); err != nil {
		panic(err)
	}
	cw.Flush()
	return strings.TrimSuffix(buf.String(), "\r\n")
}

// ntermRef is a term's N-Triples syntax built with a strings.Builder,
// independently of dict.Term.Append.
func ntermRef(t dict.Term) string {
	switch t.Kind {
	case dict.KindIRI:
		return "<" + iriRef(t.Value) + ">"
	case dict.KindBlank:
		return "_:" + t.Value
	}
	var b strings.Builder
	b.WriteByte('"')
	if strings.ContainsAny(t.Value, "\"\\\n\r\t") {
		for _, r := range t.Value {
			switch r {
			case '"':
				b.WriteString(`\"`)
			case '\\':
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteRune(r)
			}
		}
	} else {
		b.WriteString(t.Value)
	}
	b.WriteByte('"')
	if t.Lang != "" {
		b.WriteString("@" + t.Lang)
	} else if t.Datatype != "" && t.Datatype != dict.XSDString {
		b.WriteString("^^<" + iriRef(t.Datatype) + ">")
	}
	return b.String()
}

// iriRef writes each byte IRIREF forbids — <>"{}|^`\, space and the C0
// controls — as \u00XX.
func iriRef(iri string) string {
	var b strings.Builder
	for i := 0; i < len(iri); i++ {
		if c := iri[i]; c <= 0x20 || strings.IndexByte("<>\"{}|^`\\", c) >= 0 {
			fmt.Fprintf(&b, "\\u%04X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// FuzzWireTerm checks each format's term appender against its reference
// encoder for arbitrary terms: JSON against json.Marshal, CSV against
// encoding/csv, TSV against dict.Term.String and an independent
// N-Triples writer.
func FuzzWireTerm(f *testing.F) {
	fx := fixtureRows()
	for _, t := range fx.terms {
		f.Add(uint8(t.Kind), t.Value, t.Lang, t.Datatype)
	}
	for _, row := range fx.rows {
		for _, v := range row {
			if v.OID == dict.Nil && v.Kind != dict.VInvalid {
				t := computedTerm(v)
				f.Add(uint8(t.Kind), t.Value, t.Lang, t.Datatype)
			}
		}
	}
	f.Add(uint8(dict.KindLiteral), "\u2029\b\f\x1f", "", "")
	f.Add(uint8(dict.KindBlank), " b,\"", "", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype string) {
		term := dict.Term{Kind: dict.TermKind(kind % 3), Value: value, Lang: lang, Datatype: datatype}
		if got, want := appendJSONTerm(nil, term), jsonTermRef(term); !bytes.Equal(got, want) {
			t.Fatalf("json %#v:\n got %q\nwant %q", term, got, want)
		}
		if got, want := string(appendCSVTerm(nil, term)), csvFieldRef(term); got != want {
			t.Fatalf("csv %#v:\n got %q\nwant %q", term, got, want)
		}
		got := string(appendTSVTerm(nil, term))
		if want := term.String(); got != want {
			t.Fatalf("tsv %#v vs Term.String:\n got %q\nwant %q", term, got, want)
		}
		if want := ntermRef(term); got != want {
			t.Fatalf("tsv %#v vs reference:\n got %q\nwant %q", term, got, want)
		}
	})
}

// reportRows is a serve.report-shaped fixture of n decoded rows: a
// distinct order IRI and total price per row, one of 150 dates, one of 3
// statuses.
func reportRows(n int) *fakeRows {
	f := &fakeRows{vars: []string{"o", "od", "tp", "st"}, terms: map[dict.OID]dict.Term{}}
	term := func(o dict.OID, t dict.Term) dict.Value {
		f.terms[o] = t
		v := dict.Value{Kind: dict.VString, Str: t.Value}
		if t.Kind == dict.KindLiteral {
			v = dict.ParseLiteral(t.Value, t.Datatype, t.Lang)
		}
		v.OID = o
		return v
	}
	for i := 0; i < n; i++ {
		f.rows = append(f.rows, []dict.Value{
			term(dict.ResourceOID(uint64(i+1)), dict.IRI(fmt.Sprintf("http://example.com/rdfh/order/%d", i+1))),
			term(dict.LiteralOID(uint64(1+i%150)), dict.DateLit(dict.FormatDate(int64(9000+i%150)))),
			term(dict.LiteralOID(uint64(1000+i)), dict.FloatLit(1000+float64(i)*1.25)),
			term(dict.LiteralOID(uint64(100000+i%3)), dict.StringLit([]string{"F", "O", "P"}[i%3])),
		})
	}
	return f
}

// TestSerializeAllocsFlat pins that serialization allocates per request,
// not per row or cell: ten times the rows may cost only a constant
// handful more allocations (cache and buffer growth).
func TestSerializeAllocsFlat(t *testing.T) {
	small, large := reportRows(400), reportRows(4000)
	for _, mime := range []string{MimeJSON, MimeCSV, MimeTSV} {
		ser, _ := SerializerFor(mime)
		allocs := func(src *fakeRows) float64 {
			return testing.AllocsPerRun(20, func() {
				src.i = 0
				if _, err := ser.Write(io.Discard, src); err != nil {
					t.Fatal(err)
				}
			})
		}
		a400, a4000 := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocs for 400 rows, %.0f for 4000", mime, a400, a4000)
		if a4000 > a400+24 {
			t.Errorf("%s: %.0f allocs for 4000 rows, %.0f for 400: allocations grow with rows", mime, a4000, a400)
		}
	}
}

// referenceBody serializes an all-bound fixture with the reference
// encoders: json.Marshal, encoding/csv and dict.Term.String.
func referenceBody(t *testing.T, mime string, f *fakeRows) string {
	var b bytes.Buffer
	switch mime {
	case MimeJSON:
		vars, _ := json.Marshal(f.vars)
		b.WriteString(`{"head":{"vars":` + string(vars) + `},"results":{"bindings":[`)
		for r, row := range f.rows {
			if r > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			for i, v := range row {
				if i > 0 {
					b.WriteByte(',')
				}
				name, _ := json.Marshal(f.vars[i])
				b.Write(append(name, ':'))
				b.Write(jsonTermRef(f.terms[v.OID]))
			}
			b.WriteByte('}')
		}
		b.WriteString("]}}\n")
	case MimeCSV:
		cw := csv.NewWriter(&b)
		cw.UseCRLF = true
		cw.Write(f.vars)
		for _, row := range f.rows {
			rec := make([]string, len(row))
			for i, v := range row {
				rec[i] = f.terms[v.OID].Value
			}
			cw.Write(rec)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatal(err)
		}
	default:
		b.WriteString("?" + strings.Join(f.vars, "\t?") + "\n")
		for _, row := range f.rows {
			for i, v := range row {
				if i > 0 {
					b.WriteByte('\t')
				}
				b.WriteString(f.terms[v.OID].String())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestSerializersLargeResult streams a result with more distinct terms
// than the term cache keeps, so the cache starts over mid-stream, and
// checks every format against its reference encoder byte for byte.
func TestSerializersLargeResult(t *testing.T) {
	const rows = 3 * cacheTerms // two distinct terms a row: several resets
	f := reportRows(rows)
	for _, mime := range []string{MimeJSON, MimeCSV, MimeTSV} {
		f.i = 0
		if got, want := serialize(t, mime, f), referenceBody(t, mime, f); got != want {
			t.Errorf("%s: %d-row body differs from the reference encoding", mime, rows)
		}
	}
}

// TestWideProjection serves SELECTs of 1 100 variables, wider than the
// cells a serializer pulls at a time, in every format, over a result with
// rows and over an empty one. Each request must return, with every row
// written.
func TestWideProjection(t *testing.T) {
	const width = 1100
	var vars strings.Builder
	for i := 0; i < width-2; i++ {
		fmt.Fprintf(&vars, " (?n AS ?u%d)", i)
	}
	h := testServer(t, 5, Config{}).Handler()
	for _, pred := range []string{"name", "missing"} {
		q := fmt.Sprintf("SELECT ?s ?n%s WHERE { ?s <http://ex/%s> ?n }", vars.String(), pred)
		for _, mime := range []string{MimeJSON, MimeCSV, MimeTSV} {
			done := make(chan *httptest.ResponseRecorder, 1)
			go func() { done <- get(t, h, "/sparql?query="+url.QueryEscape(q), mime) }()
			select {
			case w := <-done:
				if w.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", pred, mime, w.Code, w.Body.String())
				}
				lines := strings.Count(w.Body.String(), "\n")
				if mime != MimeJSON && pred == "name" && lines != 6 {
					t.Errorf("%s %s: %d lines, want a header and 5 rows", pred, mime, lines)
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("%s %s: a %d-variable SELECT did not return", pred, mime, width)
			}
		}
	}
}

// batchRows is fakeRows with core.Rows' batched lookup; it counts the
// Terms batches and the single-OID Term calls a serializer makes.
type batchRows struct {
	*fakeRows
	batches, singles int
}

func (b *batchRows) Term(v dict.Value) (dict.Term, bool) {
	b.singles++
	return b.fakeRows.Term(v)
}

func (b *batchRows) Terms(oids []dict.OID, fn func(int, dict.Term, bool)) {
	b.batches++
	for i, o := range oids {
		t, ok := b.terms[o]
		fn(i, t, ok)
	}
}

// TestSerializersBatchedTerms drives the serializers through a source
// that resolves OIDs a batch at a time, as core.Rows does. The golden
// fixture must come out byte for byte as through single lookups, and a
// result that starts the cache over mid-stream as its reference
// encoding, with no single lookup and at most one batch per chunk.
func TestSerializersBatchedTerms(t *testing.T) {
	const rows = 3 * cacheTerms
	f := reportRows(rows)
	for _, mime := range []string{MimeJSON, MimeCSV, MimeTSV} {
		b := &batchRows{fakeRows: fixtureRows()}
		if got, want := serialize(t, mime, b), serialize(t, mime, fixtureRows()); got != want {
			t.Errorf("%s: batched fixture body\n got %q\nwant %q", mime, got, want)
		}
		f.i = 0
		b = &batchRows{fakeRows: f}
		if got, want := serialize(t, mime, b), referenceBody(t, mime, f); got != want {
			t.Errorf("%s: batched %d-row body differs from the reference encoding", mime, rows)
		}
		if chunks := rows * len(f.vars) / chunkCells; b.singles != 0 || b.batches == 0 || b.batches > chunks {
			t.Errorf("%s: %d batches and %d single lookups for %d chunks", mime, b.batches, b.singles, chunks)
		}
	}
}
