package srdf_test

import (
	"bytes"
	"strings"
	"testing"

	"srdf"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/sparql"
)

// TestTermSyntaxParity reads each term text in the object position of
// an N-Triples statement, a Turtle statement and a SPARQL triple
// pattern, with the statement's '.' glued to the term, and wants the
// same term, or a rejection, from all three.
func TestTermSyntaxParity(t *testing.T) {
	cases := []struct {
		name, text string
		want       dict.Term // zero: every syntax rejects the text
		// ntSyntax is false for texts outside the N-Triples grammar
		// (numbers, prefixed names); want.String() stands in for them.
		ntSyntax bool
		// noSPARQL marks a blank node: the SPARQL subset has none.
		noSPARQL bool
	}{
		{name: "Turtle string escapes UCHAR", text: `"caf\u00e9"`, want: dict.StringLit("café"), ntSyntax: true},
		{name: "Turtle string escapes ECHAR", text: `"a\bb"`, want: dict.StringLit("a\bb"), ntSyntax: true},
		{name: "empty language tag", text: `"x"@`, ntSyntax: true},
		{name: "empty datatype IRI", text: `"x"^^<>`, ntSyntax: true},
		{name: "Turtle double", text: `1.5e3`, want: dict.TypedLit("1.5e3", dict.XSDDouble)},
		{name: "glued dot after prefixed name", text: `x:o`, want: dict.IRI("http://x/o")},
		{name: "glued dot after blank node label", text: `_:b`, want: dict.Blank("b"), ntSyntax: true, noSPARQL: true},
		{name: "glued dot after language tag", text: `"v"@en-US`, want: dict.LangLit("v", "en-US"), ntSyntax: true},
		{name: "SPARQL string escapes", text: `"\U000000e9\t\f\'\""`, want: dict.StringLit("é\t\f'\""), ntSyntax: true},
		{name: "SPARQL IRI escapes", text: `<http://x/caf\u00e9>`, want: dict.IRI("http://x/café"), ntSyntax: true},
		{name: "SPARQL double type", text: `1.5E+3`, want: dict.TypedLit("1.5E+3", dict.XSDDouble)},
		{name: "writer round trip", text: `<http://x/a\u003Eb>`, want: dict.IRI("http://x/a>b"), ntSyntax: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ntText := c.text
			if !c.ntSyntax {
				ntText = c.want.String()
			}
			got, err := readNT(ntText)
			check(t, "N-Triples", c.want, got, err)
			got, err = readTurtle(c.text)
			check(t, "Turtle", c.want, got, err)
			if !c.noSPARQL {
				got, err = readSPARQL(c.text)
				check(t, "SPARQL", c.want, got, err)
			}
			if c.want == (dict.Term{}) {
				return
			}
			// the writer's form of the term reads back through all three
			readers := []func(string) (dict.Term, error){readNT, readTurtle, readSPARQL}
			if c.noSPARQL {
				readers = readers[:2]
			}
			for _, read := range readers {
				if got, err := read(c.want.String()); err != nil || got != c.want {
					t.Errorf("written as %s, read back %#v, %v", c.want, got, err)
				}
			}
		})
	}
}

func check(t *testing.T, syntax string, want, got dict.Term, err error) {
	t.Helper()
	switch {
	case want == (dict.Term{}) && err == nil:
		t.Errorf("%s accepts it as %#v, want a rejection", syntax, got)
	case want != (dict.Term{}) && err != nil:
		t.Errorf("%s rejects it: %v", syntax, err)
	case got != want:
		t.Errorf("%s reads %#v, want %#v", syntax, got, want)
	}
}

func readNT(term string) (dict.Term, error) {
	ts, err := nt.NewReader(strings.NewReader("<http://x/s> <http://x/p> " + term + ".\n")).ReadAll()
	if err != nil || len(ts) != 1 {
		return dict.Term{}, err
	}
	return ts[0].O, nil
}

func readTurtle(term string) (dict.Term, error) {
	ts, err := nt.ParseTurtle(strings.NewReader("@prefix x: <http://x/> .\nx:s x:p " + term + ".\n"))
	if err != nil || len(ts) != 1 {
		return dict.Term{}, err
	}
	return ts[0].O, nil
}

func readSPARQL(term string) (dict.Term, error) {
	q, err := sparql.Parse("PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:p " + term + ". }")
	if err != nil {
		return dict.Term{}, err
	}
	return q.Patterns[0].O.Term, nil
}

// TestTermSyntaxParityAnswers runs the two queries whose terms SPARQL
// used to read differently from the loader: each must find its row.
func TestTermSyntaxParityAnswers(t *testing.T) {
	s := srdf.New(srdf.Defaults())
	data := `<http://x/caf\u00e9> <http://x/v> "1.5e3"^^<http://www.w3.org/2001/XMLSchema#double> .` + "\n"
	if _, _, err := s.LoadNTriples(strings.NewReader(data), false); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT ?v WHERE { <http://x/caf\u00e9> <http://x/v> ?v }`,
		`SELECT ?s WHERE { ?s <http://x/v> 1.5e3 }`,
		`SELECT ?s WHERE { ?s <http://x/v> ?v . FILTER(?v = 1.5e3) }`,
	} {
		res, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%s: %d rows, want 1", q, len(res.Rows))
		}
	}
}

// TestWriterReadsItsOwnIRIs writes IRIs holding every byte IRIREF
// forbids and reads them back.
func TestWriterReadsItsOwnIRIs(t *testing.T) {
	odd := "http://x/a>b<c\"d{e}f|g^h`i\\j k\tl\x01m"
	in := nt.Triple{S: dict.IRI(odd), P: dict.IRI("http://x/p"), O: dict.TypedLit("v", odd)}
	var buf bytes.Buffer
	w := nt.NewWriter(&buf)
	if err := w.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := nt.NewReader(&buf).ReadAll()
	if err != nil || len(out) != 1 || out[0] != in {
		t.Fatalf("wrote %v, read %v, %v", in, out, err)
	}
}
