package sparql

import (
	"fmt"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/nt"
)

type tokKind uint8

const (
	tEOF     tokKind = iota
	tTerm            // an RDF term: IRI, prefixed name, literal or number
	tVar             // ?x or $x
	tKeyword         // SELECT, WHERE, ... (upper-cased)
	tPunct           // { } ( ) . ; , * = != < <= > >= && || ! + - /
	tA               // the keyword 'a' (rdf:type)
)

type token struct {
	kind tokKind
	// text is the keyword, punctuation or variable name; for a term,
	// its source text, and the lexer's term field holds the term
	text string
	line int
}

func (t token) String() string {
	return fmt.Sprintf("%q", t.text)
}

// ParseError reports a syntax error with its line.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("sparql: line %d: %s", e.Line, e.Msg) }

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "WHERE": true, "FILTER": true,
	"PREFIX": true, "BASE": true, "GROUP": true, "BY": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
	"OPTIONAL": true, "UNION": true,
}

// lexer hands the parser one token at a time.
type lexer struct {
	src  string
	pos  int
	line int
	term nt.Lexeme // the term of the last tTerm token
	err  error     // the first lexical error; the tokens end with it
}

// token returns the next token: tEOF at the end of the input and after
// a lexical error, which err then holds.
func (l *lexer) token() token {
	l.skipWS()
	if l.err != nil || l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line}
	}
	t, err := l.next()
	if err != nil {
		l.err = err
		return token{kind: tEOF, line: l.line}
	}
	return t
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return &ParseError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipWS() {
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case '\n':
			l.line++
			l.pos++
		case ' ', '\t', '\r':
			l.pos++
		default:
			return
		}
	}
}

// punct returns the punctuation token of the n bytes at the position.
func (l *lexer) punct(n int) (token, error) {
	t := token{kind: tPunct, text: l.src[l.pos : l.pos+n], line: l.line}
	l.pos += n
	return t, nil
}

func (l *lexer) next() (token, error) {
	c := l.src[l.pos]
	two := l.pos+1 < len(l.src) && l.src[l.pos+1] == '='
	switch {
	case c == '<' && !iriAhead(l.src, l.pos):
		// the less-than operator: an IRI ref has no whitespace before
		// its closing '>'
		if two {
			return l.punct(2)
		}
		return l.punct(1)
	case c == '!' || c == '>':
		if two {
			return l.punct(2)
		}
		return l.punct(1)
	case c == '?' || c == '$':
		return l.variable()
	case strings.IndexByte("{}().;,*=+-/", c) >= 0:
		// '-' is always the operator: unary minus makes negative numbers
		return l.punct(1)
	case c == '&' || c == '|':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == c {
			return l.punct(2)
		}
		return token{}, l.errf("unexpected %q", c)
	}
	lx, end, msg := nt.Lex(l.src, l.pos)
	if msg == "" {
		t := token{kind: tTerm, text: l.src[l.pos:end], line: l.line}
		l.term = lx
		l.line += strings.Count(t.text, "\n")
		l.pos = end
		return t, nil
	}
	if c == '<' || c == '"' || c == '\'' || c == '_' {
		return token{}, l.errf("%s", msg)
	}
	return l.word()
}

// iriAhead reports whether the '<' at src[pos] opens an IRI ref rather
// than a comparison: a '>' comes before any whitespace or other '<'.
// Stopping at the next '<' keeps lexing linear in a text of many '<'.
func iriAhead(src string, pos int) bool {
	for i := pos + 1; i < len(src); i++ {
		switch src[i] {
		case '>':
			return true
		case ' ', '\n', '\t', '<':
			return false
		}
	}
	return false
}

func (l *lexer) variable() (token, error) {
	l.pos++
	start := l.pos
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == start {
		return token{}, l.errf("empty variable name")
	}
	return token{kind: tVar, text: l.src[start:l.pos], line: l.line}, nil
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// word reads a keyword or 'a'. Keywords match case-insensitively, so
// TRUE and FALSE are the boolean literals too.
func (l *lexer) word() (token, error) {
	start := l.pos
	for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	if word == "" {
		return token{}, l.errf("unexpected character %q", l.src[start])
	}
	if word == "a" {
		return token{kind: tA, text: "a", line: l.line}, nil
	}
	switch up := strings.ToUpper(word); {
	case up == "TRUE" || up == "FALSE":
		l.term = nt.Lexeme{Term: dict.TypedLit(strings.ToLower(word), dict.XSDBool)}
		return token{kind: tTerm, text: word, line: l.line}, nil
	case keywords[up]:
		return token{kind: tKeyword, text: up, line: l.line}, nil
	}
	return token{}, l.errf("unknown token %q", word)
}
