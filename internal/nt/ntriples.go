// Package nt parses and serializes RDF triples in the N-Triples format,
// plus a pragmatic subset of Turtle (prefixes, `a`, `;`/`,` lists).
// It is the ingestion front door of the self-organizing store, and its
// term lexer (Lex) is the one the SPARQL parser uses too.
package nt

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"srdf/internal/dict"
)

// Triple is one parsed statement.
type Triple struct {
	S, P, O dict.Term
}

func (t Triple) String() string { return string(t.Append(nil)) }

// Append appends the triple's N-Triples statement, without a line end,
// to dst.
func (t Triple) Append(dst []byte) []byte {
	dst = append(t.S.Append(dst), ' ')
	dst = append(t.P.Append(dst), ' ')
	return append(t.O.Append(dst), " ."...)
}

// ParseError describes a malformed statement. Col is the 1-based
// column when the parser knows it (the Turtle parser does; the
// line-oriented N-Triples reader reports whole lines) and 0 otherwise.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("nt: line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("nt: line %d: %s", e.Line, e.Msg)
}

// Reader streams triples from N-Triples input. Malformed lines are
// reported but, when the reader is configured as lenient, skipped —
// web-crawled RDF is dirty and a single bad line must not abort a bulk
// load.
type Reader struct {
	sc      *bufio.Scanner
	line    int
	lenient bool
	errs    []error
}

// NewReader returns a strict N-Triples reader: the first malformed line
// stops the stream with an error.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc}
}

// NewLenientReader returns a reader that skips malformed lines, recording
// them for later inspection via Errs.
func NewLenientReader(r io.Reader) *Reader {
	nr := NewReader(r)
	nr.lenient = true
	return nr
}

// Errs returns the parse errors skipped so far (lenient mode only).
func (r *Reader) Errs() []error { return r.errs }

// Line returns the current line number.
func (r *Reader) Line() int { return r.line }

// Read returns the next triple. It returns io.EOF at end of input.
func (r *Reader) Read() (Triple, error) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, r.line)
		if err != nil {
			if r.lenient {
				r.errs = append(r.errs, err)
				continue
			}
			return Triple{}, err
		}
		return t, nil
	}
	if err := r.sc.Err(); err != nil {
		return Triple{}, err
	}
	return Triple{}, io.EOF
}

// ReadAll consumes the remaining stream.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

func parseLine(line string, lineNo int) (Triple, error) {
	fail := func(msg string) (Triple, error) {
		return Triple{}, &ParseError{Line: lineNo, Msg: msg}
	}
	var t [3]dict.Term
	pos := 0
	for i := range t {
		pos = skipBlanks(line, pos)
		if pos < len(line) && strings.IndexByte("<_\"", line[pos]) < 0 {
			return fail(fmt.Sprintf("unexpected character %q", line[pos]))
		}
		lx, end, msg := Lex(line, pos)
		switch {
		case msg != "":
			return fail(msg)
		case lx.PName:
			return fail("prefixed names are not N-Triples")
		case lx.Kind == dict.KindIRI && lx.Value == "":
			return fail("empty IRI")
		}
		t[i], pos = lx.Term, end
	}
	if t[0].Kind == dict.KindLiteral {
		return fail("subject must not be a literal")
	}
	if t[1].Kind != dict.KindIRI {
		return fail("predicate must be an IRI")
	}
	pos = skipBlanks(line, pos)
	if pos == len(line) || line[pos] != '.' {
		return fail("expected terminating '.'")
	}
	if rest := line[skipBlanks(line, pos+1):]; rest != "" && rest[0] != '#' {
		return fail(fmt.Sprintf("trailing garbage %q", rest))
	}
	return Triple{S: t[0], P: t[1], O: t[2]}, nil
}

func skipBlanks(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	return i
}

// Writer serializes triples as N-Triples.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one triple.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	// encode straight into the writer's free space when the line fits
	_, w.err = w.w.Write(append(t.Append(w.w.AvailableBuffer()), '\n'))
	return w.err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}
