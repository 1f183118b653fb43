package server

import (
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"srdf/internal/dict"
)

// RowSource is the streaming result a serializer consumes: the server
// adapts core.Rows to it, and tests drive serializers with fixtures.
type RowSource interface {
	Vars() []string
	Next() bool
	// Row returns the current row's cells. A cell with an OID is written
	// as the RDF term that OID names — resolved through Term, or a batch
	// at a time when the source also has a Terms method (core.Rows) — so
	// its typed fields are not read and may be unset. A cell without an
	// OID is a computed value (arithmetic, an aggregate), written as a
	// literal of its kind; the zero Value is unbound.
	Row() []dict.Value
	// Term recovers the exact RDF term named by v.OID (false for an OID
	// the source does not know).
	Term(v dict.Value) (dict.Term, bool)
	Err() error
}

// termBatcher is implemented by sources that resolve many OIDs under one
// dictionary lock (core.Rows.Terms).
type termBatcher interface {
	Terms(oids []dict.OID, fn func(i int, t dict.Term, ok bool))
}

// Result formats of the SPARQL 1.1 Query Results family the endpoint
// can negotiate.
const (
	MimeJSON = "application/sparql-results+json"
	MimeCSV  = "text/csv"
	MimeTSV  = "text/tab-separated-values"
)

// Serializer streams a result set in one output format. Write returns
// the row count and the first error — serialization or source — it hit;
// a source error mid-stream leaves a truncated document behind, which
// the HTTP layer converts into an aborted response so clients cannot
// mistake it for a complete result.
type Serializer interface {
	ContentType() string
	Write(w io.Writer, src RowSource) (rows int, err error)
}

// SerializerFor maps a negotiated media type to its serializer.
func SerializerFor(mime string) (Serializer, bool) {
	switch mime {
	case MimeJSON:
		return jsonSerializer{}, true
	case MimeCSV:
		return csvSerializer{}, true
	case MimeTSV:
		return tsvSerializer{}, true
	}
	return nil, false
}

// computedTerm is the literal a computed value is written as: its
// lexical form typed by its kind.
func computedTerm(v dict.Value) dict.Term {
	switch v.Kind {
	case dict.VBool:
		return dict.TypedLit(v.Lexical(), dict.XSDBool)
	case dict.VInt:
		return dict.TypedLit(v.Lexical(), dict.XSDInt)
	case dict.VFloat:
		return dict.TypedLit(v.Lexical(), dict.XSDDouble)
	case dict.VDate:
		return dict.TypedLit(v.Lexical(), dict.XSDDate)
	case dict.VDateTime:
		return dict.TypedLit(v.Lexical(), dict.XSDDateTm)
	default:
		return dict.StringLit(v.Str)
	}
}

// jsonSerializer emits the SPARQL 1.1 Query Results JSON Format:
// {"head":{"vars":[...]},"results":{"bindings":[...]}} with each
// binding an object of {"type","value","xml:lang"/"datatype"} terms.
type jsonSerializer struct{}

func (jsonSerializer) ContentType() string { return MimeJSON + "; charset=utf-8" }

func (jsonSerializer) Write(w io.Writer, src RowSource) (int, error) {
	vars := src.Vars()
	e := newEncoder(src, len(vars), appendJSONTerm)
	defer e.release()
	e.out = append(e.out, `{"head":{"vars":[`...)
	// each binding's `"name":` prefix is encoded once per query
	keys := make([][]byte, len(vars))
	for i, v := range vars {
		if i > 0 {
			e.out = append(e.out, ',')
		}
		e.out = appendJSONString(e.out, v)
		keys[i] = append(appendJSONString(nil, v), ':')
	}
	e.out = append(e.out, `]},"results":{"bindings":[`...)
	n, err := e.stream(w, func(b []byte, row int, cells [][]byte) []byte {
		if row > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		sep := false
		for i, c := range cells {
			if c == nil {
				continue // unbound: the variable is absent from the binding
			}
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = append(b, keys[i]...)
			b = append(b, c...)
		}
		return append(b, '}')
	})
	if err != nil {
		return n, err
	}
	e.out = append(e.out, "]}}\n"...)
	return n, e.flush(w)
}

// appendJSONTerm appends one term's binding object.
func appendJSONTerm(b []byte, t dict.Term) []byte {
	switch t.Kind {
	case dict.KindIRI:
		b = append(b, `{"type":"uri","value":`...)
	case dict.KindBlank:
		b = append(b, `{"type":"bnode","value":`...)
	default:
		b = append(b, `{"type":"literal","value":`...)
	}
	b = appendJSONString(b, t.Value)
	if t.Kind == dict.KindLiteral {
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendJSONString(b, t.Lang)
		} else if t.Datatype != "" && t.Datatype != dict.XSDString {
			b = append(b, `,"datatype":`...)
			b = appendJSONString(b, t.Datatype)
		}
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string with encoding/json's
// escaping, byte for byte: the HTML-sensitive < > & as \u003c \u003e
// \u0026, control bytes as \b \f \n \r \t or \u00XX, U+2028 and U+2029
// as \u2028 and \u2029, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonPlain[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonPlain marks the bytes appendJSONString copies as they are: ASCII
// but for control bytes, the quote, the backslash and < > &.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// csvSerializer emits SPARQL 1.1 Query Results CSV: header row of bare
// variable names, then one RFC 4180 record per solution — IRIs and
// lexical forms plain (no quoting syntax, types and languages dropped),
// blank nodes as _:label, unbound cells empty.
type csvSerializer struct{}

func (csvSerializer) ContentType() string { return MimeCSV + "; charset=utf-8" }

func (csvSerializer) Write(w io.Writer, src RowSource) (int, error) {
	vars := src.Vars()
	e := newEncoder(src, len(vars), appendCSVTerm)
	defer e.release()
	for i, v := range vars {
		if i > 0 {
			e.out = append(e.out, ',')
		}
		e.out = appendCSVField(e.out, v)
	}
	e.out = append(e.out, "\r\n"...)
	n, err := e.stream(w, func(b []byte, _ int, cells [][]byte) []byte {
		for i, c := range cells {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, c...) // unbound: an empty field
		}
		return append(b, "\r\n"...)
	})
	if err != nil {
		return n, err
	}
	return n, e.flush(w)
}

// appendCSVTerm appends one term's CSV field.
func appendCSVTerm(b []byte, t dict.Term) []byte {
	if t.Kind == dict.KindBlank {
		return appendCSVField(b, "_:"+t.Value)
	}
	return appendCSVField(b, t.Value)
}

// appendCSVField appends s as encoding/csv writes a field with UseCRLF,
// byte for byte: quoted when it contains a comma, quote, CR or LF, starts
// with a Unicode space, or is exactly \. — and inside the quotes a quote
// doubles, LF becomes CRLF, and a bare CR is dropped.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for len(s) > 0 {
		i := strings.IndexAny(s, "\"\r\n")
		if i < 0 {
			i = len(s)
		}
		b = append(b, s[:i]...)
		if i == len(s) {
			break
		}
		switch s[i] {
		case '"':
			b = append(b, `""`...)
		case '\n':
			b = append(b, "\r\n"...)
		}
		s = s[i+1:]
	}
	return append(b, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// tsvSerializer emits SPARQL 1.1 Query Results TSV: header of
// ?-prefixed variables, then terms in their Turtle/N-Triples syntax —
// <iri>, _:label, "literal"@lang, "literal"^^<datatype> — with unbound
// cells empty.
type tsvSerializer struct{}

func (tsvSerializer) ContentType() string { return MimeTSV + "; charset=utf-8" }

func (tsvSerializer) Write(w io.Writer, src RowSource) (int, error) {
	vars := src.Vars()
	e := newEncoder(src, len(vars), appendTSVTerm)
	defer e.release()
	for i, v := range vars {
		if i > 0 {
			e.out = append(e.out, '\t')
		}
		e.out = append(e.out, '?')
		e.out = append(e.out, v...)
	}
	e.out = append(e.out, '\n')
	n, err := e.stream(w, func(b []byte, _ int, cells [][]byte) []byte {
		for i, c := range cells {
			if i > 0 {
				b = append(b, '\t')
			}
			b = append(b, c...) // unbound: an empty cell
		}
		return append(b, '\n')
	})
	if err != nil {
		return n, err
	}
	return n, e.flush(w)
}

// appendTSVTerm appends one term in N-Triples syntax.
func appendTSVTerm(b []byte, t dict.Term) []byte { return t.Append(b) }

// A serializer pulls rows a chunk at a time — chunkCells cells, or one
// row when a row is wider — so the chunk's unseen OIDs resolve in one
// dictionary pass, and it writes to the connection once flushBytes of
// output have accumulated instead of once per row.
const (
	chunkCells = 1024
	flushBytes = 32 << 10
)

// encoder is the per-query state the three serializers share: the term
// cache for the negotiated format, the pulled chunk, and the output
// buffer. Encoders are pooled, so a request allocates none of it.
type encoder struct {
	src   RowSource
	batch termBatcher // nil: resolve one OID at a time through src.Term
	term  func([]byte, dict.Term) []byte
	cache termCache
	// chunk holds the pulled rows' cells, row-major; miss the chunk's
	// unseen OIDs.
	chunk []dict.Value
	miss  []dict.OID
	put   func(int, dict.Term, bool) // fillMiss, bound once per encoder
	// encoded is the current row's encoded cells (nil: unbound); computed
	// cells are encoded into scratch.
	encoded [][]byte
	scratch []byte
	out     []byte
}

var encoders = sync.Pool{New: func() any {
	e := &encoder{scratch: make([]byte, 0, 256), out: make([]byte, 0, flushBytes+4<<10)}
	e.put = e.fillMiss
	return e
}}

func newEncoder(src RowSource, width int, term func([]byte, dict.Term) []byte) *encoder {
	e := encoders.Get().(*encoder)
	e.src, e.term = src, term
	e.batch, _ = src.(termBatcher)
	e.cache.reset()
	if cap(e.encoded) < width {
		e.encoded = make([][]byte, width)
	}
	e.encoded = e.encoded[:width]
	e.out = e.out[:0]
	return e
}

// release returns the encoder to the pool, dropping what one unusually
// large result grew so the pool does not pin it.
func (e *encoder) release() {
	e.src, e.batch, e.term = nil, nil, nil
	clear(e.chunk[:cap(e.chunk)]) // drop the strings the cells reference
	clear(e.encoded)
	if cap(e.out) > 4*flushBytes {
		e.out = make([]byte, 0, flushBytes+4<<10)
	}
	e.cache.shrink()
	encoders.Put(e)
}

// stream writes every row of the source: it pulls a chunk, resolves its
// unseen OIDs, encodes each row's cells, and lets row append the row in
// the format's framing (row is the 0-based row number).
func (e *encoder) stream(w io.Writer, row func(b []byte, row int, cells [][]byte) []byte) (int, error) {
	width := len(e.encoded)
	per := max(chunkCells/max(width, 1), 1) // rows a chunk holds
	n := 0
	for more := true; more; {
		e.chunk = e.chunk[:0]
		pulled := 0
		for ; pulled < per; pulled++ {
			if more = e.src.Next(); !more {
				break
			}
			e.chunk = append(e.chunk, e.src.Row()...)
		}
		e.resolve()
		for r := 0; r < pulled; r++ {
			e.encodeRow(e.chunk[r*width : (r+1)*width])
			e.out = row(e.out, n, e.encoded)
			n++
			if len(e.out) >= flushBytes {
				if err := e.flush(w); err != nil {
					return n, err
				}
			}
		}
	}
	if err := e.src.Err(); err != nil {
		_ = e.flush(w) // the source's error is the one to report
		return n, err
	}
	return n, nil
}

func (e *encoder) flush(w io.Writer) error {
	_, err := w.Write(e.out)
	e.out = e.out[:0]
	return err
}

// resolve encodes the chunk's OIDs the cache has not seen, each once: a
// batch at a time when the source can (one dictionary lock per chunk),
// else one Term call per new OID.
func (e *encoder) resolve() {
	e.cache.startChunk()
	e.miss = e.miss[:0]
	for _, v := range e.chunk {
		if v.OID == dict.Nil {
			continue
		}
		slot, fresh := e.cache.claim(v.OID)
		switch {
		case !fresh:
		case e.batch != nil:
			e.miss = append(e.miss, v.OID)
		default:
			if t, ok := e.src.Term(v); ok {
				e.cache.fill(slot, e.term, t)
			}
		}
	}
	if len(e.miss) > 0 {
		e.batch.Terms(e.miss, e.put)
	}
}

// fillMiss encodes the term of the i-th batched miss into its slot.
func (e *encoder) fillMiss(i int, t dict.Term, ok bool) {
	if ok {
		e.cache.fill(e.cache.find(e.miss[i]), e.term, t)
	}
}

// encodeRow points e.encoded at the encodings of one row: cached terms for
// OID cells, fresh encodings in scratch for computed ones.
func (e *encoder) encodeRow(row []dict.Value) {
	e.scratch = e.scratch[:0]
	for i, v := range row {
		if v.OID != dict.Nil {
			if b, ok := e.cache.get(v.OID); ok {
				e.encoded[i] = b
				continue
			}
			// an OID the source does not know: written from its value
		}
		if v.Kind == dict.VInvalid {
			e.encoded[i] = nil
			continue
		}
		lo := len(e.scratch)
		e.scratch = e.term(e.scratch, computedTerm(v))
		e.encoded[i] = e.scratch[lo:len(e.scratch):len(e.scratch)]
	}
}

// termCache maps the OIDs of one query's result to their encoding in the
// negotiated format, so a term repeated across rows — a status code, a
// date — is resolved and encoded once. The encodings share one byte
// arena; the index is an open-addressing table of arena spans. Past
// cacheBytes of arena or cacheTerms entries the cache starts over at the
// next chunk, so a result of millions of distinct terms still streams in
// bounded memory.
type termCache struct {
	slots []cacheSlot // power-of-two length; OID Nil marks a free slot
	shift uint
	used  int
	arena []byte
}

type cacheSlot struct {
	oid dict.OID
	// lo, hi span the encoding in the arena; lo < 0 until it is filled,
	// and for good when the source does not know the OID
	lo, hi int
}

const (
	cacheBytes = 1 << 20
	cacheTerms = 1 << 14
)

func (c *termCache) reset() {
	if c.used > 0 {
		clear(c.slots)
		c.used = 0
	}
	c.arena = c.arena[:0]
}

// startChunk starts the cache over when it has outgrown its budget.
func (c *termCache) startChunk() {
	if len(c.arena) > cacheBytes || c.used > cacheTerms {
		c.reset()
	}
}

// shrink drops storage a large result grew before the cache is pooled.
func (c *termCache) shrink() {
	if len(c.slots) > 4*cacheTerms {
		c.slots, c.shift, c.used = nil, 0, 0
	}
	if cap(c.arena) > 2*cacheBytes {
		c.arena = nil
	}
}

// find returns o's slot, or the free slot where it belongs.
func (c *termCache) find(o dict.OID) int {
	mask := len(c.slots) - 1
	i := int((uint64(o) * 0x9e3779b97f4a7c15) >> c.shift)
	for c.slots[i].oid != dict.Nil && c.slots[i].oid != o {
		i = (i + 1) & mask
	}
	return i
}

// claim returns o's slot, inserting an unfilled entry when o is new
// (fresh). The slot stays valid until the next claim, which may rehash.
func (c *termCache) claim(o dict.OID) (slot int, fresh bool) {
	if 2*(c.used+1) > len(c.slots) {
		c.grow()
	}
	i := c.find(o)
	if c.slots[i].oid == o {
		return i, false
	}
	c.slots[i] = cacheSlot{oid: o, lo: -1}
	c.used++
	return i, true
}

// grow doubles the table (64 slots at first) and rehashes it.
func (c *termCache) grow() {
	old := c.slots
	c.slots = make([]cacheSlot, max(64, 2*len(old)))
	c.shift = uint(64 - bits.TrailingZeros(uint(len(c.slots))))
	for _, s := range old {
		if s.oid != dict.Nil {
			c.slots[c.find(s.oid)] = s
		}
	}
}

// fill encodes t into the arena as the entry of a claimed slot.
func (c *termCache) fill(slot int, enc func([]byte, dict.Term) []byte, t dict.Term) {
	s := &c.slots[slot]
	s.lo = len(c.arena)
	c.arena = enc(c.arena, t)
	s.hi = len(c.arena)
}

// get returns o's encoding; false when o is not cached or unknown.
func (c *termCache) get(o dict.OID) ([]byte, bool) {
	if c.used == 0 {
		return nil, false
	}
	s := &c.slots[c.find(o)]
	if s.oid != o || s.lo < 0 {
		return nil, false
	}
	return c.arena[s.lo:s.hi:s.hi], true
}

// Negotiate picks a result format from an Accept header value, ""
// meaning "anything" (JSON). It honors q-weights across the three
// supported types plus the wildcard families. q=0 means "not acceptable"
// (RFC 9110 §12.4.2): the entry itself matches nothing, and a concrete
// type at q=0 also vetoes its format where a wildcard would pick it. A
// concrete type with q>0 always matches its own format, so
// "application/json;q=0, application/sparql-results+json" is JSON. False
// means nothing acceptable (406).
func Negotiate(accept string) (string, bool) {
	if strings.TrimSpace(accept) == "" {
		return MimeJSON, true
	}
	parts := strings.Split(accept, ",")
	vetoed := map[string]bool{} // formats a wildcard must not pick
	for _, part := range parts {
		if mime, q := parseAcceptPart(part); q <= 0 && !isWildcard(mime) {
			for _, offer := range offersFor(mime) {
				vetoed[offer] = true
			}
		}
	}
	best, bestQ := "", 0.0
	for _, part := range parts {
		mime, q := parseAcceptPart(part)
		if q <= bestQ {
			// strictly greater: an earlier entry wins ties, and JSON is
			// listed first by clients that want it
			continue
		}
		wild := isWildcard(mime)
		for _, offer := range offersFor(mime) {
			if !wild || !vetoed[offer] {
				best, bestQ = offer, q
				break
			}
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}

// offersFor lists the formats a media range matches, preferred first: a
// single format for a concrete type, several for a wildcard.
func offersFor(mime string) []string {
	switch mime {
	case MimeJSON, "application/json", "application/*":
		return []string{MimeJSON}
	case MimeCSV:
		return []string{MimeCSV}
	case MimeTSV:
		return []string{MimeTSV}
	case "*/*":
		return []string{MimeJSON, MimeCSV, MimeTSV}
	case "text/*":
		return []string{MimeCSV, MimeTSV}
	}
	return nil
}

func isWildcard(mime string) bool { return strings.HasSuffix(mime, "/*") }

func parseAcceptPart(part string) (string, float64) {
	fields := strings.Split(part, ";")
	mime := strings.ToLower(strings.TrimSpace(fields[0]))
	q := 1.0
	for _, f := range fields[1:] {
		f = strings.TrimSpace(f)
		if v, ok := strings.CutPrefix(f, "q="); ok {
			if parsed, err := strconv.ParseFloat(v, 64); err == nil {
				q = parsed
			}
		}
	}
	return mime, q
}
