package nt_test

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/sparql"
)

// FuzzRDFTerm feeds arbitrary text to the three readers, which must
// never panic, and checks that every term dict.Term.Append can write
// reads back equal through N-Triples, through Turtle and, unless it is
// a blank node, in a SPARQL object position.
func FuzzRDFTerm(f *testing.F) {
	f.Add(uint8(dict.KindIRI), "http://x/a>b c\\d", "", "")
	f.Add(uint8(dict.KindBlank), "b.1-x", "", "")
	f.Add(uint8(dict.KindLiteral), "café \"q\" \\ \n\r\t\b\f", "", "")
	f.Add(uint8(dict.KindLiteral), "v", "en-US", "")
	f.Add(uint8(dict.KindLiteral), "1.5e3", "", dict.XSDDouble)
	f.Add(uint8(dict.KindLiteral), "x", "", "http://x/{dt}")
	f.Add(uint8(dict.KindLiteral), `<s> <p> "aé"@en .`, "", "")
	f.Add(uint8(dict.KindLiteral), `@prefix x: <http://x/> . x:a x:p x:o.`, "", "")
	f.Add(uint8(dict.KindLiteral), `SELECT ?s WHERE { ?s <p> 1.e3 ; <q> 'z'^^x:t }`, "", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, lang, datatype string) {
		_, _ = nt.NewLenientReader(strings.NewReader(value)).ReadAll()
		_, _ = nt.ParseTurtle(strings.NewReader(value))
		_, _ = sparql.Parse(value)

		term := dict.Term{Kind: dict.TermKind(kind % 3), Value: value, Lang: lang, Datatype: datatype}
		want, ok := written(term)
		if !ok {
			return
		}
		text := term.String()
		ts, err := nt.NewReader(strings.NewReader("<http://x/s> <http://x/p> " + text + " .\n")).ReadAll()
		if err != nil || len(ts) != 1 || ts[0].O != want {
			t.Fatalf("N-Triples read %s as %v, %v; want %#v", text, ts, err, want)
		}
		ts, err = nt.ParseTurtle(strings.NewReader("<http://x/s> <http://x/p> " + text + "."))
		if err != nil || len(ts) != 1 || ts[0].O != want {
			t.Fatalf("Turtle read %s as %v, %v; want %#v", text, ts, err, want)
		}
		if want.Kind == dict.KindBlank {
			return
		}
		q, err := sparql.Parse("SELECT ?s WHERE { ?s <http://x/p> " + text + " }")
		if err != nil || q.Patterns[0].O.Term != want {
			t.Fatalf("SPARQL read %s as %v; want %#v", text, err, want)
		}
	})
}

// written returns the term a reader must get back from term.String(),
// or false when N-Triples cannot express term: an empty IRI, a blank
// node label outside BLANK_NODE_LABEL, a literal that is not UTF-8 or
// whose tag is outside LANGTAG. A language tag wins over a datatype,
// and xsd:string is written as no datatype.
func written(term dict.Term) (dict.Term, bool) {
	switch term.Kind {
	case dict.KindIRI:
		return dict.IRI(term.Value), term.Value != ""
	case dict.KindBlank:
		return dict.Blank(term.Value), isLabel(term.Value)
	}
	if !utf8.ValidString(term.Value) {
		return term, false
	}
	if term.Lang != "" {
		term.Datatype = ""
		return term, strings.Trim(term.Lang, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-") == ""
	}
	if term.Datatype == dict.XSDString {
		term.Datatype = ""
	}
	return term, true
}

func isLabel(s string) bool {
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' && r != '.' {
			return false
		}
	}
	return s != "" && !strings.HasSuffix(s, ".")
}
