package dict

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// TermKind classifies an RDF term.
type TermKind uint8

const (
	// KindIRI is an IRI reference such as <http://example.org/x>.
	KindIRI TermKind = iota
	// KindBlank is a blank node such as _:b0.
	KindBlank
	// KindLiteral is a literal, optionally typed or language-tagged.
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindBlank:
		return "blank"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Well-known vocabulary IRIs.
const (
	RDFType   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	XSDString = "http://www.w3.org/2001/XMLSchema#string"
	XSDInt    = "http://www.w3.org/2001/XMLSchema#integer"
	XSDLong   = "http://www.w3.org/2001/XMLSchema#long"
	XSDDec    = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble = "http://www.w3.org/2001/XMLSchema#double"
	XSDFloat  = "http://www.w3.org/2001/XMLSchema#float"
	XSDBool   = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate   = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTm = "http://www.w3.org/2001/XMLSchema#dateTime"
)

// Term is a decoded RDF term.
//
// For KindIRI, Value holds the IRI. For KindBlank, Value holds the label
// without the "_:" prefix. For KindLiteral, Value holds the lexical form,
// Datatype the datatype IRI ("" means xsd:string), and Lang the language
// tag ("" if none).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// IRI returns an IRI term.
func IRI(v string) Term { return Term{Kind: KindIRI, Value: v} }

// Blank returns a blank-node term with the given label.
func Blank(label string) Term { return Term{Kind: KindBlank, Value: label} }

// StringLit returns a plain string literal.
func StringLit(v string) Term { return Term{Kind: KindLiteral, Value: v} }

// TypedLit returns a literal with an explicit datatype IRI.
func TypedLit(v, datatype string) Term {
	return Term{Kind: KindLiteral, Value: v, Datatype: datatype}
}

// IntLit returns an xsd:integer literal.
func IntLit(v int64) Term {
	return Term{Kind: KindLiteral, Value: fmt.Sprintf("%d", v), Datatype: XSDInt}
}

// FloatLit returns an xsd:double literal.
func FloatLit(v float64) Term {
	return Term{Kind: KindLiteral, Value: trimFloat(v), Datatype: XSDDouble}
}

// DateLit returns an xsd:date literal from an ISO yyyy-mm-dd string.
func DateLit(iso string) Term {
	return Term{Kind: KindLiteral, Value: iso, Datatype: XSDDate}
}

// LangLit returns a language-tagged string literal.
func LangLit(v, lang string) Term {
	return Term{Kind: KindLiteral, Value: v, Lang: lang}
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == KindLiteral }

// IsResource reports whether the term is an IRI or blank node.
func (t Term) IsResource() bool { return t.Kind != KindLiteral }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	return string(t.Append(make([]byte, 0, len(t.Value)+len(t.Datatype)+len(t.Lang)+8)))
}

// Append appends the term's N-Triples syntax (String) to dst.
func (t Term) Append(dst []byte) []byte {
	switch t.Kind {
	case KindIRI:
		dst = append(dst, '<')
		dst = appendEscapedIRI(dst, t.Value)
		return append(dst, '>')
	case KindBlank:
		dst = append(dst, "_:"...)
		return append(dst, t.Value...)
	}
	dst = append(dst, '"')
	dst = appendEscapedLiteral(dst, t.Value)
	dst = append(dst, '"')
	if t.Lang != "" {
		dst = append(dst, '@')
		dst = append(dst, t.Lang...)
	} else if t.Datatype != "" && t.Datatype != XSDString {
		dst = append(dst, "^^<"...)
		dst = appendEscapedIRI(dst, t.Datatype)
		dst = append(dst, '>')
	}
	return dst
}

// iriEscaped marks the bytes IRIREF forbids: <>"{}|^`\, space and the
// C0 controls.
var iriEscaped = func() (t [256]bool) {
	for c := 0; c <= ' '; c++ {
		t[c] = true
	}
	for _, c := range []byte("<>\"{}|^`\\") {
		t[c] = true
	}
	return t
}()

// appendEscapedIRI appends iri with each byte IRIREF forbids written as
// \u00XX, so that an N-Triples reader gets the same IRI back.
func appendEscapedIRI(dst []byte, iri string) []byte {
	const hex = "0123456789ABCDEF"
	start := 0
	for i := 0; i < len(iri); i++ {
		if c := iri[i]; iriEscaped[c] {
			dst = append(dst, iri[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&15])
			start = i + 1
		}
	}
	return append(dst, iri[start:]...)
}

// appendEscapedLiteral appends s with N-Triples' string escapes. A value
// that needs none is copied byte for byte; one that does is re-encoded
// rune by rune, which also turns invalid UTF-8 into U+FFFD.
func appendEscapedLiteral(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return append(dst, s...)
	}
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, `\"`...)
		case '\\':
			dst = append(dst, `\\`...)
		case '\n':
			dst = append(dst, `\n`...)
		case '\r':
			dst = append(dst, `\r`...)
		case '\t':
			dst = append(dst, `\t`...)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return dst
}

// LocalName extracts the human-readable suffix of an IRI: the part after
// the last '#', '/', or ':'. Used for emergent schema naming (§II-A,
// research question ii — "shapes and names that can be easily understood").
func LocalName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	if i := strings.LastIndex(iri, ":"); i >= 0 && i+1 < len(iri) {
		return iri[i+1:]
	}
	return iri
}
