package nt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"srdf/internal/dict"
)

func mustReadAll(t *testing.T, src string) []Triple {
	t.Helper()
	ts, err := NewReader(strings.NewReader(src)).ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return ts
}

func TestParseBasicTriple(t *testing.T) {
	ts := mustReadAll(t, `<http://e.org/s> <http://e.org/p> <http://e.org/o> .`)
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
	want := Triple{S: dict.IRI("http://e.org/s"), P: dict.IRI("http://e.org/p"), O: dict.IRI("http://e.org/o")}
	if ts[0] != want {
		t.Errorf("got %+v, want %+v", ts[0], want)
	}
}

func TestParseLiteralForms(t *testing.T) {
	src := `<s:a> <p:b> "plain" .
<s:a> <p:b> "typed"^^<http://www.w3.org/2001/XMLSchema#integer> .
<s:a> <p:b> "tagged"@en-US .
<s:a> <p:b> "esc\t\"x\"\nok" .
<s:a> <p:b> "uniA\U00000042" .`
	ts := mustReadAll(t, src)
	if len(ts) != 5 {
		t.Fatalf("got %d triples, want 5", len(ts))
	}
	if ts[0].O != dict.StringLit("plain") {
		t.Errorf("plain literal: %+v", ts[0].O)
	}
	if ts[1].O.Datatype != dict.XSDInt {
		t.Errorf("typed literal datatype: %+v", ts[1].O)
	}
	if ts[2].O.Lang != "en-US" {
		t.Errorf("lang tag: %+v", ts[2].O)
	}
	if ts[3].O.Value != "esc\t\"x\"\nok" {
		t.Errorf("escapes: %q", ts[3].O.Value)
	}
	if ts[4].O.Value != "uniAB" {
		t.Errorf("unicode escapes: %q", ts[4].O.Value)
	}
}

func TestParseBlankNodes(t *testing.T) {
	ts := mustReadAll(t, `_:b0 <p:x> _:b1 .`)
	if ts[0].S != dict.Blank("b0") || ts[0].O != dict.Blank("b1") {
		t.Errorf("blank nodes: %+v", ts[0])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	src := "# header\n\n<s:a> <p:b> <o:c> . # trailing\n   \n# done"
	ts := mustReadAll(t, src)
	if len(ts) != 1 {
		t.Fatalf("got %d triples, want 1", len(ts))
	}
}

func TestStrictErrors(t *testing.T) {
	bad := []string{
		`<s:a> <p:b> <o:c>`,           // missing dot
		`"lit" <p:b> <o:c> .`,         // literal subject
		`<s:a> _:b <o:c> .`,           // blank predicate
		`<s:a> <p:b> "unterminated .`, // unterminated literal
		`<s:a> <p:b> <o:c> . extra`,   // trailing garbage
		`<s:a> <p:b> "x"^^bad .`,      // datatype not IRI
		`<s:a> <p:b> "x\q" .`,         // bad escape
		`<s:a> <p:b> "x"@ .`,          // empty lang
		`<unterminated <p:b> <o:c> .`, // IRI containing < is fine but unterminated at eol is not — here '>' closes "unterminated <p:b> <o:c" wait
		`<s:a>`,                       // short line
		`<s:a> <p:b> "u\u12" .`,       // truncated \u
		`_: <p:b> <o:c> .`,            // empty blank label
		`<> <p:b> <o:c> .`,            // empty IRI
	}
	for _, src := range bad {
		if _, err := NewReader(strings.NewReader(src)).ReadAll(); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestLenientSkipsBadLines(t *testing.T) {
	src := `<s:a> <p:b> <o:c> .
garbage line here
<s:d> <p:e> "v" .`
	r := NewLenientReader(strings.NewReader(src))
	ts, err := r.ReadAll()
	if err != nil {
		t.Fatalf("lenient ReadAll: %v", err)
	}
	if len(ts) != 2 {
		t.Errorf("got %d triples, want 2", len(ts))
	}
	if len(r.Errs()) != 1 {
		t.Errorf("got %d errors, want 1", len(r.Errs()))
	}
	var pe *ParseError
	if e := r.Errs()[0]; !asParseError(e, &pe) || pe.Line != 2 {
		t.Errorf("error line = %v, want line 2", r.Errs()[0])
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

func TestWriterRoundTrip(t *testing.T) {
	in := []Triple{
		{S: dict.IRI("http://e/s"), P: dict.IRI("http://e/p"), O: dict.StringLit(`tricky "quote" \ back`)},
		{S: dict.Blank("n1"), P: dict.IRI("http://e/p"), O: dict.TypedLit("1996-12-01", dict.XSDDate)},
		{S: dict.IRI("http://e/s"), P: dict.IRI("http://e/p"), O: dict.LangLit("hola", "es")},
		{S: dict.IRI("http://e/s"), P: dict.IRI("http://e/p"), O: dict.StringLit("line1\nline2\ttab")},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range in {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := mustReadAll(t, buf.String())
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d triples", len(in), len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("triple %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in []Triple
		for i := 0; i < 1+r.Intn(10); i++ {
			s := dict.IRI("http://x/" + randWord(r))
			if r.Intn(4) == 0 {
				s = dict.Blank("b" + randWord(r))
			}
			p := dict.IRI("http://p/" + randWord(r))
			var o dict.Term
			switch r.Intn(4) {
			case 0:
				o = dict.IRI("http://o/" + randWord(r))
			case 1:
				o = dict.StringLit(randText(r))
			case 2:
				o = dict.IntLit(r.Int63n(1000))
			default:
				o = dict.LangLit(randText(r), "en")
			}
			in = append(in, Triple{S: s, P: p, O: o})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, tr := range in {
			if w.Write(tr) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		out, err := NewReader(&buf).ReadAll()
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randWord(r *rand.Rand) string {
	n := 1 + r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func randText(r *rand.Rand) string {
	chars := []rune("abc \"\\\n\tü日")
	n := r.Intn(12)
	b := make([]rune, n)
	for i := range b {
		b[i] = chars[r.Intn(len(chars))]
	}
	return string(b)
}

func TestReadStreaming(t *testing.T) {
	src := strings.Repeat("<s:a> <p:b> <o:c> .\n", 100)
	r := NewReader(strings.NewReader(src))
	n := 0
	for {
		_, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 100 {
		t.Errorf("streamed %d triples, want 100", n)
	}
}

func TestParseTurtleBasics(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
# a comment
ex:inproc1 a ex:InProceedings ;
    ex:creator ex:author3 , ex:author4 ;
    ex:title "AAA" ;
    ex:year 2010 ;
    ex:score 4.5 ;
    ex:accepted true ;
    ex:issued "2010-05-01"^^xsd:date .
_:b1 ex:knows ex:inproc1 .
`
	ts, err := ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseTurtle: %v", err)
	}
	if len(ts) != 9 {
		t.Fatalf("got %d triples, want 9: %v", len(ts), ts)
	}
	if ts[0].P.Value != dict.RDFType {
		t.Errorf("`a` did not expand to rdf:type: %v", ts[0].P)
	}
	if ts[1].O.Value != "http://example.org/author3" || ts[2].O.Value != "http://example.org/author4" {
		t.Errorf("object list mis-parsed: %v %v", ts[1].O, ts[2].O)
	}
	if ts[4].O.Datatype != dict.XSDInt {
		t.Errorf("integer literal: %+v", ts[4].O)
	}
	if ts[5].O.Datatype != dict.XSDDec {
		t.Errorf("decimal literal: %+v", ts[5].O)
	}
	if ts[6].O.Datatype != dict.XSDBool {
		t.Errorf("boolean literal: %+v", ts[6].O)
	}
	if ts[7].O.Datatype != dict.XSDDate {
		t.Errorf("dated literal: %+v", ts[7].O)
	}
	if ts[8].S.Kind != dict.KindBlank {
		t.Errorf("blank subject: %+v", ts[8].S)
	}
}

func TestParseTurtleErrors(t *testing.T) {
	bad := []string{
		`ex:a ex:b ex:c .`,                                         // undefined prefix
		`@prefix ex: <http://e/> . ex:a ex:b`,                      // missing object & dot
		`@prefix ex: <http://e/> . ex:a ex:b [ex:c [ex:d ex:e]] .`, // two-level bnode list
		`@prefix ex: <http://e/> . ex:a ex:b [ex:c ex:d .`,         // unterminated bnode list
	}
	for _, src := range bad {
		if _, err := ParseTurtle(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseTurtleBnodePropertyLists(t *testing.T) {
	src := `
@prefix ex: <http://e.org/> .
ex:s ex:p [ ex:q ex:o ; ex:r "v" ] .
[ ex:name "n" ] ex:knows ex:s .
[ ex:lone 1 ] .
`
	ts, err := ParseTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseTurtle: %v", err)
	}
	if len(ts) != 6 {
		t.Fatalf("got %d triples, want 6: %v", len(ts), ts)
	}
	// Object-position list: inner triples first, then the referencing one.
	bn := ts[0].S
	if bn.Kind != dict.KindBlank || ts[1].S != bn {
		t.Errorf("inner triples share no blank subject: %v / %v", ts[0], ts[1])
	}
	if ts[0].O.Value != "http://e.org/o" || ts[1].O.Value != "v" {
		t.Errorf("inner objects mis-parsed: %v %v", ts[0].O, ts[1].O)
	}
	if ts[2].O != bn || ts[2].S.Value != "http://e.org/s" {
		t.Errorf("outer triple does not reference the minted bnode: %v", ts[2])
	}
	// Subject-position list.
	if ts[3].S.Kind != dict.KindBlank || ts[3].S == bn {
		t.Errorf("subject list bnode: %v", ts[3])
	}
	if ts[4].S != ts[3].S || ts[4].O.Value != "http://e.org/s" {
		t.Errorf("subject list statement: %v", ts[4])
	}
	// `[ p o ] .` standing alone.
	if ts[5].S.Kind != dict.KindBlank || ts[5].O.Value != "1" {
		t.Errorf("standalone property list: %v", ts[5])
	}
}

func TestParseTurtleErrorPosition(t *testing.T) {
	src := "@prefix ex: <http://e/> .\nex:a ex:b zz:c ."
	_, err := ParseTurtle(strings.NewReader(src))
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is no *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("line = %d, want 2", pe.Line)
	}
	if pe.Col == 0 {
		t.Errorf("column not reported: %v", pe)
	}
	if !strings.Contains(err.Error(), "line 2:") {
		t.Errorf("message lacks position: %v", err)
	}
}

func TestParseTurtleMatchesNTriples(t *testing.T) {
	ttl := `@prefix ex: <http://e.org/> .
ex:s ex:p ex:o .
ex:s ex:q "v" .`
	ntSrc := `<http://e.org/s> <http://e.org/p> <http://e.org/o> .
<http://e.org/s> <http://e.org/q> "v" .`
	a, err := ParseTurtle(strings.NewReader(ttl))
	if err != nil {
		t.Fatal(err)
	}
	b := mustReadAll(t, ntSrc)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d triples", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("triple %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestLexLongEscapes reads a literal of 500 000 escapes and an IRI of
// 100 000 UCHARs: each term is scanned in one pass, not rescanned from
// every escape.
func TestLexLongEscapes(t *testing.T) {
	lit := `"` + strings.Repeat(`\t`, 500_000) + `"`
	iri := `<` + strings.Repeat(`\u0041`, 100_000) + `>`
	start := time.Now()
	ts := mustReadAll(t, iri+" <p:b> "+lit+" .")
	if len(ts[0].O.Value) != 500_000 || len(ts[0].S.Value) != 100_000 {
		t.Fatalf("read %d and %d bytes", len(ts[0].S.Value), len(ts[0].O.Value))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("read took %v", d)
	}
}
