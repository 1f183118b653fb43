package dict

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestOIDTagging(t *testing.T) {
	r := ResourceOID(42)
	l := LiteralOID(42)
	if !r.IsResource() || r.IsLiteral() {
		t.Errorf("ResourceOID(42) tagging wrong: %v", r)
	}
	if !l.IsLiteral() || l.IsResource() {
		t.Errorf("LiteralOID(42) tagging wrong: %v", l)
	}
	if r.Payload() != 42 || l.Payload() != 42 {
		t.Errorf("payloads: %d %d, want 42 42", r.Payload(), l.Payload())
	}
	if Nil.Valid() {
		t.Error("Nil must be invalid")
	}
	if Nil.IsResource() || Nil.IsLiteral() {
		t.Error("Nil must be neither resource nor literal")
	}
}

func TestOIDTagInvariantQuick(t *testing.T) {
	f := func(p uint32) bool {
		payload := uint64(p) + 1
		r, l := ResourceOID(payload), LiteralOID(payload)
		return r.IsResource() && l.IsLiteral() &&
			r.Payload() == payload && l.Payload() == payload && r != l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInternIdempotent(t *testing.T) {
	d := New()
	a := d.InternIRI("http://example.org/a")
	b := d.InternIRI("http://example.org/b")
	a2 := d.InternIRI("http://example.org/a")
	if a != a2 {
		t.Errorf("re-intern changed OID: %v vs %v", a, a2)
	}
	if a == b {
		t.Error("distinct IRIs share an OID")
	}
	if d.NumResources() != 2 {
		t.Errorf("NumResources = %d, want 2", d.NumResources())
	}
}

func TestInternLiteralVsResourceNamespaces(t *testing.T) {
	d := New()
	r := d.InternIRI("x")
	l := d.InternLiteral("x", "", "")
	if r == l {
		t.Error("IRI and literal with same lexical form must differ")
	}
	if !l.IsLiteral() || !r.IsResource() {
		t.Error("tag bits wrong after intern")
	}
}

func TestBlankVsIRI(t *testing.T) {
	d := New()
	b := d.InternBlank("x")
	i := d.InternIRI("x")
	if b == i {
		t.Error("blank _:x and IRI <x> must not collide")
	}
	tb, _ := d.Term(b)
	if tb.Kind != KindBlank || tb.Value != "x" {
		t.Errorf("blank round-trip: %+v", tb)
	}
}

func TestLiteralDistinguishedByDatatypeAndLang(t *testing.T) {
	d := New()
	plain := d.InternLiteral("1996", "", "")
	typed := d.InternLiteral("1996", XSDInt, "")
	lang := d.InternLiteral("1996", "", "en")
	if plain == typed || plain == lang || typed == lang {
		t.Error("literals differing only in datatype/lang must get distinct OIDs")
	}
}

func TestTermRoundTripQuick(t *testing.T) {
	d := New()
	f := func(iri string, lex string, pickLit bool) bool {
		var in Term
		if pickLit {
			in = StringLit(lex)
		} else {
			if iri == "" {
				iri = "e"
			}
			in = IRI(iri)
		}
		o := d.Intern(in)
		out, ok := d.Term(o)
		return ok && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLookup(t *testing.T) {
	d := New()
	term := TypedLit("3.14", XSDDouble)
	o := d.Intern(term)
	got, ok := d.Lookup(term)
	if !ok || got != o {
		t.Errorf("Lookup = %v,%v want %v,true", got, ok, o)
	}
	if _, ok := d.Lookup(IRI("missing")); ok {
		t.Error("Lookup of missing term succeeded")
	}
}

func TestValueTyping(t *testing.T) {
	cases := []struct {
		lex, dt string
		kind    ValueKind
	}{
		{"42", XSDInt, VInt},
		{"-7", "", VInt}, // sniffed
		{"3.5", XSDDouble, VFloat},
		{"2.25", XSDDec, VFloat},
		{"1996-12-01", XSDDate, VDate},
		{"1996-12-01", "", VDate}, // sniffed
		{"true", XSDBool, VBool},
		{"hello", "", VString},
		{"12a", "", VString},
		{"not-a-number", XSDInt, VString}, // malformed falls back
	}
	d := New()
	for _, c := range cases {
		o := d.InternLiteral(c.lex, c.dt, "")
		if v := d.Value(o); v.Kind != c.kind {
			t.Errorf("Value(%q,%q).Kind = %v, want %v", c.lex, c.dt, v.Kind, c.kind)
		}
	}
}

func TestValueOfResourceIsInvalid(t *testing.T) {
	d := New()
	o := d.InternIRI("r")
	if v := d.Value(o); v.Kind != VInvalid {
		t.Errorf("Value of resource = %v, want VInvalid", v.Kind)
	}
}

func TestCompareOrdering(t *testing.T) {
	iv := func(n int64) Value { return Value{Kind: VInt, Int: n} }
	fv := func(f float64) Value { return Value{Kind: VFloat, Float: f} }
	sv := func(s string) Value { return Value{Kind: VString, Str: s} }
	dv := func(n int64) Value { return Value{Kind: VDate, Int: n} }

	if Compare(iv(1), iv(2)) != -1 || Compare(iv(2), iv(1)) != 1 || Compare(iv(2), iv(2)) != 0 {
		t.Error("int ordering broken")
	}
	if Compare(iv(2), fv(2.5)) != -1 {
		t.Error("cross numeric int<float ordering broken")
	}
	if Compare(fv(2.0), iv(3)) != -1 {
		t.Error("cross numeric float<int ordering broken")
	}
	if Compare(sv("a"), sv("b")) != -1 {
		t.Error("string ordering broken")
	}
	if Compare(dv(100), dv(200)) != -1 {
		t.Error("date ordering broken")
	}
	// cross-kind: numeric < date < string per collation constants
	if Compare(iv(9999), dv(0)) != -1 {
		t.Error("numeric must collate before date")
	}
	if Compare(dv(9999), sv("")) != -1 {
		t.Error("date must collate before string")
	}
}

func TestCompareAntisymmetryQuick(t *testing.T) {
	gen := func(seed int64) Value {
		r := rand.New(rand.NewSource(seed))
		switch r.Intn(4) {
		case 0:
			return Value{Kind: VInt, Int: r.Int63n(1000) - 500}
		case 1:
			return Value{Kind: VFloat, Float: r.Float64()*100 - 50}
		case 2:
			return Value{Kind: VDate, Int: r.Int63n(20000)}
		default:
			return Value{Kind: VString, Str: fmt.Sprintf("s%d", r.Intn(100))}
		}
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := make([]Value, 60)
	for i := range vals {
		switch r.Intn(5) {
		case 0:
			vals[i] = Value{Kind: VInt, Int: r.Int63n(50)}
		case 1:
			vals[i] = Value{Kind: VFloat, Float: float64(r.Intn(50))}
		case 2:
			vals[i] = Value{Kind: VDate, Int: r.Int63n(50)}
		case 3:
			vals[i] = Value{Kind: VBool, Int: r.Int63n(2)}
		default:
			vals[i] = Value{Kind: VString, Str: string(rune('a' + r.Intn(26)))}
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated: %v %v %v", a, b, c)
				}
			}
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "1992-01-01", "1998-08-02", "2024-02-29"} {
		d, ok := ParseDate(s)
		if !ok {
			t.Fatalf("ParseDate(%q) failed", s)
		}
		if got := FormatDate(d); got != s {
			t.Errorf("FormatDate(ParseDate(%q)) = %q", s, got)
		}
	}
	if _, ok := ParseDate("1996-13-40"); ok {
		t.Error("invalid date parsed")
	}
}

func TestLexicalRoundTrip(t *testing.T) {
	cases := []Value{
		{Kind: VInt, Int: -42},
		{Kind: VFloat, Float: 2.5},
		{Kind: VBool, Int: 1},
		{Kind: VDate, Int: 9497},
		{Kind: VString, Str: "plain"},
	}
	for _, v := range cases {
		lex := v.Lexical()
		var dt string
		switch v.Kind {
		case VInt:
			dt = XSDInt
		case VFloat:
			dt = XSDDouble
		case VBool:
			dt = XSDBool
		case VDate:
			dt = XSDDate
		}
		got := ParseLiteral(lex, dt, "")
		if Compare(got, v) != 0 {
			t.Errorf("lexical round-trip of %+v via %q gave %+v", v, lex, got)
		}
	}
}

func TestRemapBijection(t *testing.T) {
	d := New()
	var oids []OID
	for i := 0; i < 10; i++ {
		oids = append(oids, d.InternIRI(fmt.Sprintf("r%d", i)))
	}
	var lits []OID
	for i := 0; i < 10; i++ {
		lits = append(lits, d.InternLiteral(fmt.Sprintf("%d", i), XSDInt, ""))
	}
	terms := make(map[OID]Term)
	for _, o := range append(append([]OID{}, oids...), lits...) {
		tm, _ := d.Term(o)
		terms[o] = tm
	}
	// reverse both populations
	resMap := make([]uint64, 10)
	litMap := make([]uint64, 10)
	for i := 0; i < 10; i++ {
		resMap[i] = uint64(10 - i)
		litMap[i] = uint64(10 - i)
	}
	d.Remap(resMap, litMap, false)
	for old, tm := range terms {
		var nw OID
		if old.IsLiteral() {
			nw = LiteralOID(litMap[old.Payload()-1])
		} else {
			nw = ResourceOID(resMap[old.Payload()-1])
		}
		got, ok := d.Term(nw)
		if !ok || got != tm {
			t.Errorf("after remap, term at %v = %+v, want %+v", nw, got, tm)
		}
		// and lookup agrees
		lo, ok := d.Lookup(tm)
		if !ok || lo != nw {
			t.Errorf("Lookup(%v) = %v, want %v", tm, lo, nw)
		}
	}
}

func TestRemapRejectsNonBijection(t *testing.T) {
	d := New()
	d.InternIRI("a")
	d.InternIRI("b")
	defer func() {
		if recover() == nil {
			t.Error("non-bijective remap must panic")
		}
	}()
	d.Remap([]uint64{1, 1}, nil, false)
}

func TestRemapQuickRandomPermutation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		n := 5 + r.Intn(50)
		for i := 0; i < n; i++ {
			d.InternLiteral(fmt.Sprintf("v%d", i), "", "")
		}
		perm := r.Perm(n)
		m := make([]uint64, n)
		for i, p := range perm {
			m[i] = uint64(p + 1)
		}
		d.Remap(nil, m, false)
		for i := 0; i < n; i++ {
			tm, ok := d.Term(LiteralOID(m[i]))
			if !ok || tm.Value != fmt.Sprintf("v%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentIntern(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	const g, n = 8, 500
	results := make([][]OID, g)
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]OID, n)
			for i := 0; i < n; i++ {
				out[i] = d.InternIRI(fmt.Sprintf("r%d", i))
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < g; w++ {
		for i := 0; i < n; i++ {
			if results[w][i] != results[0][i] {
				t.Fatalf("goroutine %d got different OID for r%d", w, i)
			}
		}
	}
	if d.NumResources() != n {
		t.Errorf("NumResources = %d, want %d", d.NumResources(), n)
	}
}

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://example.org/schema#title": "title",
		"http://example.org/author":       "author",
		"urn:isbn:12345":                  "12345",
		"noseparator":                     "noseparator",
	}
	for in, want := range cases {
		if got := LocalName(in); got != want {
			t.Errorf("LocalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTermString(t *testing.T) {
	cases := map[string]Term{
		"<http://e.org/a>":       IRI("http://e.org/a"),
		"_:b0":                   Blank("b0"),
		`"hi"`:                   StringLit("hi"),
		`"42"^^<` + XSDInt + `>`: IntLit(42),
		`"hi"@en`:                LangLit("hi", "en"),
		`"a\"b\\c"`:              StringLit(`a"b\c`),
		`"l1\nl2"`:               StringLit("l1\nl2"),
	}
	for want, tm := range cases {
		if got := tm.String(); got != want {
			t.Errorf("Term.String = %s, want %s", got, want)
		}
	}
}
