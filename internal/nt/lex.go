package nt

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"srdf/internal/dict"
)

// This file is the one lexer for the RDF terminals that N-Triples,
// Turtle and SPARQL share (W3C RDF 1.1 N-Triples and Turtle, SPARQL
// 1.1): IRIREF, PNAME_NS/PNAME_LN, BLANK_NODE_LABEL, '"'- and
// '\''-quoted strings with ECHAR and UCHAR escapes, LANGTAG, INTEGER,
// DECIMAL, DOUBLE and true/false. Each reader dispatches on its own
// statement shape and calls Lex for the terms; none scans a terminal
// itself. A string or IRI without a backslash comes back as a substring
// of the input, not a copy.

// Lexeme is one term as Lex scans it. A name written as a prefixed
// name is left unresolved: PName is set, Prefix holds the prefix, and
// the local part stands where the IRI would — in Value for an IRI, in
// Datatype for a literal's datatype. Resolve expands it.
type Lexeme struct {
	dict.Term
	PName  bool
	Prefix string
}

// Resolve returns the term with its prefixed name expanded through ns.
// ok is false when ns has no such prefix.
func (lx Lexeme) Resolve(ns map[string]string) (t dict.Term, ok bool) {
	t = lx.Term
	if !lx.PName {
		return t, true
	}
	iri, ok := ns[lx.Prefix]
	if t.Kind == dict.KindLiteral {
		t.Datatype = iri + t.Datatype
	} else {
		t.Value = iri + t.Value
	}
	return t, ok
}

// Lex scans the term that starts at src[pos]: an IRIREF, a prefixed
// name, a blank node label, a quoted string with its language tag or
// datatype, a number or true/false. It returns the term and the
// position after it; on malformed input it returns a message instead,
// and the position where the term went wrong. The caller wraps the
// message in its own error type.
func Lex(src string, pos int) (Lexeme, int, string) {
	if pos >= len(src) {
		return Lexeme{}, pos, "unexpected end of input"
	}
	switch c := src[pos]; {
	case c == '<':
		iri, end, msg := lexIRI(src, pos)
		return Lexeme{Term: dict.IRI(iri)}, end, msg
	case c == '"' || c == '\'':
		return lexLiteral(src, pos)
	case c == '_' && pos+1 < len(src) && src[pos+1] == ':':
		end := nameEnd(src, pos+2)
		if end == pos+2 {
			return Lexeme{}, end, "empty blank node label"
		}
		return Lexeme{Term: dict.Blank(src[pos+2 : end])}, end, ""
	case c >= '0' && c <= '9' || c == '+' || c == '-':
		return lexNumber(src, pos)
	}
	return lexName(src, pos)
}

// lexIRI scans the IRIREF at src[pos] == '<' and decodes its UCHARs.
func lexIRI(src string, pos int) (string, int, string) {
	n := strings.IndexByte(src[pos+1:], '>')
	if n < 0 {
		return "", len(src), "unterminated IRI"
	}
	raw, end := src[pos+1:pos+1+n], pos+2+n
	if strings.IndexByte(raw, '\\') < 0 {
		return raw, end, ""
	}
	iri, msg := unescape(raw, false)
	return iri, end, msg
}

// lexName scans a prefixed name, or true/false.
func lexName(src string, pos int) (Lexeme, int, string) {
	end := nameEnd(src, pos)
	if end < len(src) && src[end] == ':' {
		lend := nameEnd(src, end+1)
		return Lexeme{Term: dict.IRI(src[end+1 : lend]), PName: true, Prefix: src[pos:end]}, lend, ""
	}
	if w := src[pos:end]; w == "true" || w == "false" {
		return Lexeme{Term: dict.TypedLit(w, dict.XSDBool)}, end, ""
	}
	return Lexeme{}, pos, "expected a term"
}

// nameEnd returns the end of the run of name characters at src[pos:] —
// letters, digits, '_', '-' and '.' — less any trailing '.': a name,
// label or tag never ends in '.', so a statement's '.' glued to it
// ends the statement.
func nameEnd(src string, pos int) int {
	i := pos
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if !isAlnum(c) && c != '_' && c != '-' && c != '.' {
				break
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(src[i:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		i += n
	}
	for i > pos && src[i-1] == '.' {
		i--
	}
	return i
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// lexLiteral scans the quoted string at src[pos] and its @lang or
// ^^datatype.
func lexLiteral(src string, pos int) (Lexeme, int, string) {
	q := src[pos]
	i, j, esc := pos+1, pos, false // j: the next unescaped-looking q
	for {
		if j < i {
			k := strings.IndexByte(src[i:], q)
			if k < 0 {
				return Lexeme{}, len(src), "unterminated string"
			}
			j = i + k
		}
		b := strings.IndexByte(src[i:j], '\\')
		if b < 0 {
			i = j
			break
		}
		// skip the backslash and the byte it escapes, which may be q
		esc, i = true, i+b+2
	}
	lit := Lexeme{Term: dict.Term{Kind: dict.KindLiteral, Value: src[pos+1 : i]}}
	if esc {
		v, msg := unescape(lit.Value, true)
		if msg != "" {
			return Lexeme{}, i, msg
		}
		lit.Value = v
	}
	end := i + 1
	switch {
	case end < len(src) && src[end] == '@':
		tend := end + 1
		for tend < len(src) && (isAlnum(src[tend]) || src[tend] == '_' || src[tend] == '-') {
			tend++
		}
		if tend == end+1 {
			return Lexeme{}, tend, "empty language tag"
		}
		lit.Lang = src[end+1 : tend]
		return lit, tend, ""
	case strings.HasPrefix(src[end:], "^^"):
		if end+2 < len(src) && src[end+2] == '<' {
			dt, dend, msg := lexIRI(src, end+2)
			if msg == "" && dt == "" {
				return Lexeme{}, end + 2, "empty datatype IRI"
			}
			lit.Datatype = dt
			return lit, dend, msg
		}
		dt, dend, msg := lexName(src, end+2)
		if msg != "" || !dt.PName {
			return Lexeme{}, end + 2, "datatype must be an IRI"
		}
		lit.Datatype, lit.PName, lit.Prefix = dt.Value, true, dt.Prefix
		return lit, dend, ""
	}
	return lit, end, ""
}

// unescape decodes the UCHARs (\uXXXX, \UXXXXXXXX) in s and, when
// echar is set (strings, not IRIs), its ECHARs.
func unescape(s string, echar bool) (string, string) {
	var b strings.Builder
	b.Grow(len(s))
	for {
		i := strings.IndexByte(s, '\\')
		if i < 0 {
			b.WriteString(s)
			return b.String(), ""
		}
		b.WriteString(s[:i])
		if i+1 == len(s) {
			return "", "dangling escape"
		}
		switch e := s[i+1]; {
		case e == 'u' || e == 'U':
			n := 4
			if e == 'U' {
				n = 8
			}
			if i+2+n > len(s) {
				return "", fmt.Sprintf("truncated \\%c escape", e)
			}
			code, err := strconv.ParseUint(s[i+2:i+2+n], 16, 32)
			if err != nil {
				return "", fmt.Sprintf("bad \\%c escape", e)
			}
			b.WriteRune(rune(code))
			s = s[i+2+n:]
			continue
		case !echar:
			return "", "invalid IRI escape"
		case e == 't':
			b.WriteByte('\t')
		case e == 'b':
			b.WriteByte('\b')
		case e == 'n':
			b.WriteByte('\n')
		case e == 'r':
			b.WriteByte('\r')
		case e == 'f':
			b.WriteByte('\f')
		case e == '"' || e == '\'' || e == '\\':
			b.WriteByte(e)
		default:
			return "", fmt.Sprintf("unknown escape \\%c", e)
		}
		s = s[i+2:]
	}
}

// lexNumber scans an INTEGER, DECIMAL or DOUBLE and types it
// xsd:integer, xsd:decimal or xsd:double. A '.' not followed by a
// digit or an exponent ends the statement, not the number.
func lexNumber(src string, pos int) (Lexeme, int, string) {
	i := pos
	if c := src[i]; c == '+' || c == '-' {
		i++
	}
	d := digitsEnd(src, i)
	if d == i {
		return Lexeme{}, i, "malformed number"
	}
	i, dt := d, dict.XSDInt
	if i < len(src) && src[i] == '.' {
		if d := digitsEnd(src, i+1); d > i+1 {
			i, dt = d, dict.XSDDec
		} else if expEnd(src, i+1) > i+1 {
			i++ // "1.e3": the exponent below makes it a double
		}
	}
	if e := expEnd(src, i); e > i {
		i, dt = e, dict.XSDDouble
	}
	return Lexeme{Term: dict.TypedLit(src[pos:i], dt)}, i, ""
}

func digitsEnd(src string, i int) int {
	for i < len(src) && src[i] >= '0' && src[i] <= '9' {
		i++
	}
	return i
}

// expEnd returns the end of the exponent [eE][+-]?[0-9]+ at src[i:], or
// i when there is none.
func expEnd(src string, i int) int {
	if i >= len(src) || src[i] != 'e' && src[i] != 'E' {
		return i
	}
	j := i + 1
	if j < len(src) && (src[j] == '+' || src[j] == '-') {
		j++
	}
	if d := digitsEnd(src, j); d > j {
		return d
	}
	return i
}
