package nt

import (
	"fmt"
	"io"
	"strings"

	"srdf/internal/dict"
)

// ParseTurtle reads a pragmatic subset of Turtle: @prefix / PREFIX and
// @base / BASE directives, `a` for rdf:type, object lists with `,`,
// predicate-object lists with `;`, one-level blank-node property lists
// `[ p o ; ... ]` (in subject or object position, minting a fresh blank
// node), and comments. Every term — IRIs, prefixed names, blank node
// labels, double- and single-quoted strings with their escapes,
// language tags, datatypes, numbers and booleans — is read by Lex, the
// lexer the N-Triples reader and the SPARQL parser share, so a term
// reads the same in all three. Not supported: collections `( )`,
// property lists nested inside property lists, and long `"""` strings.
// Parse errors carry line and column.
//
// It exists so that examples and tests can state small graphs readably;
// bulk loading uses the line-oriented N-Triples Reader.
func ParseTurtle(r io.Reader) ([]Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &turtleParser{src: string(data), prefixes: map[string]string{}}
	return p.parse()
}

type turtleParser struct {
	src      string
	pos      int
	prefixes map[string]string
	base     string
	bnodeSeq int
	// bnodeDepth guards the one-level limit on non-empty blank-node
	// property lists.
	bnodeDepth int
	out        []Triple
}

func (p *turtleParser) errf(format string, args ...interface{}) error {
	// line and 1-based column, derived from the position rather than
	// tracked: the last newline before pos starts the current line.
	line := 1 + strings.Count(p.src[:p.pos], "\n")
	col := p.pos - strings.LastIndexByte(p.src[:p.pos], '\n')
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *turtleParser) eof() bool { return p.pos >= len(p.src) }

func (p *turtleParser) peek() byte { return p.src[p.pos] }

func (p *turtleParser) skipWS() {
	for !p.eof() {
		switch p.peek() {
		case '#':
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *turtleParser) parse() ([]Triple, error) {
	for {
		p.skipWS()
		if p.eof() {
			return p.out, nil
		}
		if err := p.statement(); err != nil {
			return p.out, err
		}
	}
}

func (p *turtleParser) statement() error {
	if p.matchKeyword("@prefix") || p.matchKeyword("PREFIX") {
		return p.prefixDecl()
	}
	if p.matchKeyword("@base") || p.matchKeyword("BASE") {
		iri, err := p.directiveIRI("@base")
		p.base = iri
		return err
	}
	subj, propList, err := p.subject()
	if err != nil {
		return err
	}
	p.skipWS()
	// `[ p o ] .` is a complete statement: the property list already
	// produced its triples and no outer predicate is required.
	if !(propList && !p.eof() && p.peek() == '.') {
		if err := p.predicateObjectList(subj); err != nil {
			return err
		}
		p.skipWS()
	}
	if p.eof() || p.peek() != '.' {
		return p.errf("expected '.' after statement")
	}
	p.pos++
	return nil
}

func (p *turtleParser) matchKeyword(kw string) bool {
	if strings.HasPrefix(p.src[p.pos:], kw) {
		p.pos += len(kw)
		return true
	}
	return false
}

func (p *turtleParser) prefixDecl() error {
	p.skipWS()
	lx, end, msg := lexName(p.src, p.pos)
	if msg != "" || !lx.PName || lx.Value != "" {
		return p.errf("malformed @prefix")
	}
	p.pos = end
	iri, err := p.directiveIRI("@prefix")
	p.prefixes[lx.Prefix] = iri
	return err
}

// directiveIRI reads the IRI that ends a @prefix or @base directive,
// verbatim, and the directive's optional '.'.
func (p *turtleParser) directiveIRI(directive string) (string, error) {
	p.skipWS()
	if p.eof() || p.peek() != '<' {
		return "", p.errf("%s expects an IRI", directive)
	}
	lx, end, msg := Lex(p.src, p.pos)
	p.pos = end
	if msg != "" {
		return "", p.errf("%s", msg)
	}
	p.skipWS()
	if !p.eof() && p.peek() == '.' {
		p.pos++
	}
	return lx.Value, nil
}

// subject parses the statement subject. The second result reports a
// non-empty blank-node property list `[ p o ]`, whose triples are
// already emitted — such a subject may end the statement on its own.
func (p *turtleParser) subject() (dict.Term, bool, error) {
	p.skipWS()
	if !p.eof() && p.peek() == '[' {
		term, anon, err := p.bnodePropertyList()
		return term, err == nil && !anon, err
	}
	t, err := p.term()
	if err == nil && t.Kind == dict.KindLiteral {
		err = p.errf("subject must not be a literal")
	}
	return t, false, err
}

// bnodePropertyList parses `[]` or a one-level `[ p o ; ... ]` at the
// current '[', minting a fresh blank node; for the non-empty form the
// inner triples are appended to the output. anon reports the bare `[]`.
func (p *turtleParser) bnodePropertyList() (term dict.Term, anon bool, err error) {
	p.pos++ // '['
	p.skipWS()
	p.bnodeSeq++
	bn := dict.Blank(fmt.Sprintf("anon%d", p.bnodeSeq))
	if !p.eof() && p.peek() == ']' {
		p.pos++
		return bn, true, nil
	}
	if p.bnodeDepth >= 1 {
		return dict.Term{}, false, p.errf("blank node property lists nest at most one level")
	}
	p.bnodeDepth++
	err = p.predicateObjectList(bn)
	p.bnodeDepth--
	if err != nil {
		return dict.Term{}, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != ']' {
		return dict.Term{}, false, p.errf("expected ']' closing blank node property list")
	}
	p.pos++
	return bn, false, nil
}

func (p *turtleParser) predicateObjectList(subj dict.Term) error {
	for {
		p.skipWS()
		pred, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skipWS()
			obj, err := p.object()
			if err != nil {
				return err
			}
			p.out = append(p.out, Triple{S: subj, P: pred, O: obj})
			p.skipWS()
			if !p.eof() && p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		p.skipWS()
		if !p.eof() && p.peek() == ';' {
			// ';' separates predicate-object pairs; runs of them are
			// tolerated and a trailing one before '.' or ']' ends the
			// list instead of demanding another predicate.
			for !p.eof() && p.peek() == ';' {
				p.pos++
				p.skipWS()
			}
			if p.eof() || p.peek() == '.' || p.peek() == ']' {
				return nil
			}
			continue
		}
		return nil
	}
}

func (p *turtleParser) predicate() (dict.Term, error) {
	// `a` only if followed by whitespace
	if p.pos+1 < len(p.src) && p.src[p.pos] == 'a' && strings.IndexByte(" \t\n\r", p.src[p.pos+1]) >= 0 {
		p.pos++
		return dict.IRI(dict.RDFType), nil
	}
	t, err := p.term()
	if err == nil && t.Kind != dict.KindIRI {
		err = p.errf("predicate must be an IRI")
	}
	return t, err
}

func (p *turtleParser) object() (dict.Term, error) {
	if !p.eof() && p.peek() == '[' {
		term, _, err := p.bnodePropertyList()
		return term, err
	}
	return p.term()
}

// term lexes the term at the current position, expands a prefixed name
// and resolves a relative IRI against @base.
func (p *turtleParser) term() (dict.Term, error) {
	lx, end, msg := Lex(p.src, p.pos)
	if msg != "" {
		p.pos = end
		return dict.Term{}, p.errf("%s", msg)
	}
	t, ok := lx.Resolve(p.prefixes)
	if !ok {
		return dict.Term{}, p.errf("undefined prefix %q", lx.Prefix)
	}
	p.pos = end
	if t.Kind == dict.KindIRI && !lx.PName {
		t.Value = p.resolve(t.Value)
	}
	return t, nil
}

func (p *turtleParser) resolve(iri string) string {
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		return p.base + iri
	}
	return iri
}
