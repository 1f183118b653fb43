package server

import (
	"strings"
	"testing"

	"srdf/internal/dict"
)

// fakeRows drives serializers from fixed rows; Term resolves through a
// fixture OID→term map exactly like core.Rows resolves through the
// dictionary.
type fakeRows struct {
	vars  []string
	rows  [][]dict.Value
	terms map[dict.OID]dict.Term
	i     int
	err   error
}

func (f *fakeRows) Vars() []string { return f.vars }
func (f *fakeRows) Next() bool {
	if f.i >= len(f.rows) {
		return false
	}
	f.i++
	return true
}
func (f *fakeRows) Row() []dict.Value { return f.rows[f.i-1] }
func (f *fakeRows) Err() error        { return f.err }
func (f *fakeRows) Term(v dict.Value) (dict.Term, bool) {
	t, ok := f.terms[v.OID]
	return t, ok
}

// fixtureRows covers every term shape the serializers distinguish: IRI,
// language-tagged literal, typed literal, blank node, unbound cell,
// plain literal, and computed values with no source OID. The escaping
// rows pin each format's quoting rules: JSON's HTML-safe and control
// escapes, U+2028/2029 and invalid UTF-8; CSV's quoting triggers
// (leading space, "\.", CR, LF) and CRLF normalization; the N-Triples
// escapes of TSV; and an explicit xsd:string, which every format writes
// as a plain literal.
func fixtureRows() *fakeRows {
	return &fakeRows{
		vars: []string{"x", "y"},
		terms: map[dict.OID]dict.Term{
			1: dict.IRI("http://ex/a"),
			2: dict.LangLit("chat", "fr"),
			3: dict.IntLit(42),
			4: dict.Blank("b0"),
			5: dict.StringLit("say \"hi\",\nok"),
			6: dict.StringLit("a<b>&c\u2028d\u2029e\x01f\x7fg\xffh"),
			7: dict.StringLit(" lead\rcr\ttab\xfe"),
			8: dict.StringLit(`\.`),
			9: dict.TypedLit("s", dict.XSDString),
		},
		rows: [][]dict.Value{
			{
				{Kind: dict.VString, Str: "http://ex/a", OID: 1},
				{Kind: dict.VString, Str: "chat", OID: 2},
			},
			{
				{Kind: dict.VInt, Int: 42, OID: 3},
				{Kind: dict.VString, Str: "_:b0", OID: 4},
			},
			{
				{}, // unbound
				{Kind: dict.VString, Str: "say \"hi\",\nok", OID: 5},
			},
			{
				{Kind: dict.VFloat, Float: 2.5}, // computed: no OID
				{},
			},
			{
				{Kind: dict.VString, Str: "a<b>&c\u2028d\u2029e\x01f\x7fg\xffh", OID: 6},
				{Kind: dict.VString, Str: " lead\rcr\ttab\xfe", OID: 7},
			},
			{
				{Kind: dict.VString, Str: `\.`, OID: 8},
				{Kind: dict.VString, Str: "s", OID: 9},
			},
			{
				{Kind: dict.VBool, Int: 1},
				{Kind: dict.VInt, Int: -7},
			},
			{
				{Kind: dict.VDate, Int: 19000},
				{Kind: dict.VDateTime, Int: 1700000000},
			},
			{
				{Kind: dict.VString, Str: "text, \"q\""},
				{},
			},
		},
	}
}

func serialize(t *testing.T, mime string, src RowSource) string {
	t.Helper()
	ser, ok := SerializerFor(mime)
	if !ok {
		t.Fatalf("no serializer for %s", mime)
	}
	var b strings.Builder
	if _, err := ser.Write(&b, src); err != nil {
		t.Fatalf("%s: %v", mime, err)
	}
	return b.String()
}

func TestJSONSerializerGolden(t *testing.T) {
	got := serialize(t, MimeJSON, fixtureRows())
	want := `{"head":{"vars":["x","y"]},"results":{"bindings":[` +
		`{"x":{"type":"uri","value":"http://ex/a"},"y":{"type":"literal","value":"chat","xml:lang":"fr"}},` +
		`{"x":{"type":"literal","value":"42","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"y":{"type":"bnode","value":"b0"}},` +
		`{"y":{"type":"literal","value":"say \"hi\",\nok"}},` +
		`{"x":{"type":"literal","value":"2.5","datatype":"http://www.w3.org/2001/XMLSchema#double"}},` +
		`{"x":{"type":"literal","value":"a\u003cb\u003e\u0026c\u2028d\u2029e\u0001f` + "\x7f" + `g\ufffdh"},` +
		`"y":{"type":"literal","value":" lead\rcr\ttab\ufffd"}},` +
		`{"x":{"type":"literal","value":"\\."},"y":{"type":"literal","value":"s"}},` +
		`{"x":{"type":"literal","value":"true","datatype":"http://www.w3.org/2001/XMLSchema#boolean"},` +
		`"y":{"type":"literal","value":"-7","datatype":"http://www.w3.org/2001/XMLSchema#integer"}},` +
		`{"x":{"type":"literal","value":"2022-01-08","datatype":"http://www.w3.org/2001/XMLSchema#date"},` +
		`"y":{"type":"literal","value":"2023-11-14T22:13:20Z","datatype":"http://www.w3.org/2001/XMLSchema#dateTime"}},` +
		`{"x":{"type":"literal","value":"text, \"q\""}}` +
		`]}}` + "\n"
	if got != want {
		t.Fatalf("json:\n got %q\nwant %q", got, want)
	}
}

func TestCSVSerializerGolden(t *testing.T) {
	got := serialize(t, MimeCSV, fixtureRows())
	// encoding/csv in CRLF mode also normalizes the embedded newline and
	// drops the bare CR; a leading space and the field \. force quotes
	want := "x,y\r\n" +
		"http://ex/a,chat\r\n" +
		"42,_:b0\r\n" +
		",\"say \"\"hi\"\",\r\nok\"\r\n" +
		"2.5,\r\n" +
		"a<b>&c\u2028d\u2029e\x01f\x7fg\xffh,\" leadcr\ttab\xfe\"\r\n" +
		"\"\\.\",s\r\n" +
		"true,-7\r\n" +
		"2022-01-08,2023-11-14T22:13:20Z\r\n" +
		"\"text, \"\"q\"\"\",\r\n"
	if got != want {
		t.Fatalf("csv:\n got %q\nwant %q", got, want)
	}
}

func TestTSVSerializerGolden(t *testing.T) {
	got := serialize(t, MimeTSV, fixtureRows())
	want := "?x\t?y\n" +
		"<http://ex/a>\t\"chat\"@fr\n" +
		"\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>\t_:b0\n" +
		"\t\"say \\\"hi\\\",\\nok\"\n" +
		"\"2.5\"^^<http://www.w3.org/2001/XMLSchema#double>\t\n" +
		// only a literal that needs an escape is re-encoded rune by rune,
		// which turns its invalid UTF-8 into U+FFFD
		"\"a<b>&c\u2028d\u2029e\x01f\x7fg\xffh\"\t\" lead\\rcr\\ttab\ufffd\"\n" +
		"\"\\\\.\"\t\"s\"\n" +
		"\"true\"^^<http://www.w3.org/2001/XMLSchema#boolean>\t\"-7\"^^<http://www.w3.org/2001/XMLSchema#integer>\n" +
		"\"2022-01-08\"^^<http://www.w3.org/2001/XMLSchema#date>\t\"2023-11-14T22:13:20Z\"^^<http://www.w3.org/2001/XMLSchema#dateTime>\n" +
		"\"text, \\\"q\\\"\"\t\n"
	if got != want {
		t.Fatalf("tsv:\n got %q\nwant %q", got, want)
	}
}

func TestSerializersEmptyResult(t *testing.T) {
	empty := func() *fakeRows { return &fakeRows{vars: []string{"a", "b"}} }
	if got, want := serialize(t, MimeJSON, empty()),
		`{"head":{"vars":["a","b"]},"results":{"bindings":[]}}`+"\n"; got != want {
		t.Fatalf("json empty:\n got %q\nwant %q", got, want)
	}
	if got, want := serialize(t, MimeCSV, empty()), "a,b\r\n"; got != want {
		t.Fatalf("csv empty:\n got %q\nwant %q", got, want)
	}
	if got, want := serialize(t, MimeTSV, empty()), "?a\t?b\n"; got != want {
		t.Fatalf("tsv empty:\n got %q\nwant %q", got, want)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		want   string
		ok     bool
	}{
		{"", MimeJSON, true},
		{"application/sparql-results+json", MimeJSON, true},
		{"application/json", MimeJSON, true},
		{"text/csv", MimeCSV, true},
		{"text/tab-separated-values", MimeTSV, true},
		{"*/*", MimeJSON, true},
		{"application/*", MimeJSON, true},
		{"text/*", MimeCSV, true},
		{"text/html, */*;q=0.1", MimeJSON, true},
		{"text/csv;q=0.5, application/sparql-results+json;q=0.9", MimeJSON, true},
		{"application/sparql-results+json;q=0.1, text/tab-separated-values", MimeTSV, true},
		{"TEXT/CSV", MimeCSV, true},
		{"text/csv ; q=0.8", MimeCSV, true},
		{"application/rdf+xml", "", false},
		{"text/html;q=0.9", "", false},
		// q=0 is "not acceptable" (RFC 9110 §12.4.2), never a last resort,
		// and an explicit q=0 vetoes its type under a wildcard too
		{"text/csv;q=0", "", false},
		{"application/json;q=0, */*", MimeCSV, true},
		{"text/html, */*;q=0", "", false},
		{"text/csv, */*;q=0", MimeCSV, true},
		{"text/*;q=0, text/tab-separated-values", MimeTSV, true},
		{"text/csv;q=0, text/*", MimeTSV, true},
		// the veto binds wildcards only: a concrete type with q>0 always
		// matches its own format, even one another alias vetoed
		{"application/json;q=0, application/sparql-results+json", MimeJSON, true},
		{"application/sparql-results+json;q=0, application/json;q=0.5, text/csv;q=0.4", MimeJSON, true},
	}
	for _, c := range cases {
		got, ok := Negotiate(c.accept)
		if ok != c.ok || got != c.want {
			t.Errorf("Negotiate(%q) = %q,%v; want %q,%v", c.accept, got, ok, c.want, c.ok)
		}
	}
}

func TestHistogramBucketsMatch(t *testing.T) {
	srv := testServer(t, 2, Config{})
	srv.met.latency.Observe(0.003)
	w := get(t, srv.Handler(), "/metrics", "")
	body := w.Body.String()
	for _, want := range []string{
		`srdf_query_duration_seconds_bucket{le="0.0001"} 0`,
		`srdf_query_duration_seconds_bucket{le="0.005"} 1`,
		`srdf_query_duration_seconds_bucket{le="+Inf"} 1`,
		"srdf_query_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q\n%s", want, body)
		}
	}
}
