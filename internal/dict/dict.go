package dict

import (
	"fmt"
	"strings"
	"sync"
)

// Dictionary interns RDF terms and assigns OIDs. Resources (IRIs and
// blank nodes) and literals live in separate payload spaces distinguished
// by the OID tag bit, so each population can be renumbered independently
// by Remap during reorganization.
//
// A Dictionary is safe for concurrent interning and lookup.
type Dictionary struct {
	mu sync.RWMutex

	// Resources. resKeys[i-1] is the key of payload i.
	resIDs  map[string]uint64
	resKeys []string // "<iri" without closing, or "_:label"; see resKey

	// Literals. Parallel slices indexed by payload-1.
	litIDs  map[litKey]uint64
	litLex  []litKey
	litVals []Value
	// names holds the one copy of each datatype IRI and language tag
	// the literals share.
	names map[string]string

	// Literal order (see order.go): payloads 1..litN are value-ordered;
	// while litN > 0 every later payload is an overflow literal, listed
	// in over sorted by (value, payload), or in overNew (unsorted) when
	// minted since the last LiteralOrder view.
	litN    int
	over    []uint64
	overNew []uint64
}

type litKey struct {
	lex, datatype, lang string
}

// New returns an empty dictionary.
func New() *Dictionary {
	return &Dictionary{
		resIDs: make(map[string]uint64),
		litIDs: make(map[litKey]uint64),
		names:  make(map[string]string),
	}
}

func resKey(t Term) string {
	if t.Kind == KindBlank {
		return "_:" + t.Value
	}
	return t.Value
}

// Intern returns the OID for t, assigning a fresh one on first sight.
func (d *Dictionary) Intern(t Term) OID {
	if t.Kind == KindLiteral {
		return d.InternLiteral(t.Value, t.Datatype, t.Lang)
	}
	return d.internResource(resKey(t))
}

// InternIRI interns an IRI term.
func (d *Dictionary) InternIRI(iri string) OID { return d.internResource(iri) }

// InternBlank interns a blank node by label.
func (d *Dictionary) InternBlank(label string) OID { return d.internResource("_:" + label) }

func (d *Dictionary) internResource(key string) OID {
	d.mu.RLock()
	id, ok := d.resIDs[key]
	d.mu.RUnlock()
	if ok {
		return ResourceOID(id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.resIDs[key]; ok {
		return ResourceOID(id)
	}
	key = strings.Clone(key) // the caller's string may pin a whole input line
	d.resKeys = append(d.resKeys, key)
	id = uint64(len(d.resKeys))
	d.resIDs[key] = id
	return ResourceOID(id)
}

// InternLiteral interns a literal by lexical form, datatype and language.
func (d *Dictionary) InternLiteral(lex, datatype, lang string) OID {
	k := litKey{lex, datatype, lang}
	d.mu.RLock()
	id, ok := d.litIDs[k]
	d.mu.RUnlock()
	if ok {
		return LiteralOID(id)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.litIDs[k]; ok {
		return LiteralOID(id)
	}
	k = litKey{strings.Clone(lex), d.shared(datatype), d.shared(lang)}
	d.litLex = append(d.litLex, k)
	d.litVals = append(d.litVals, ParseLiteral(k.lex, k.datatype, k.lang))
	id = uint64(len(d.litLex))
	d.litIDs[k] = id
	if d.litN > 0 {
		d.overNew = append(d.overNew, id)
	}
	return LiteralOID(id)
}

// shared returns the dictionary's one copy of a datatype IRI or
// language tag. Callers hold d.mu.
func (d *Dictionary) shared(s string) string {
	if s == "" {
		return s
	}
	c, ok := d.names[s]
	if !ok {
		c = strings.Clone(s)
		d.names[c] = c
	}
	return c
}

// Lookup returns the OID of t if it has been interned.
func (d *Dictionary) Lookup(t Term) (OID, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if t.Kind == KindLiteral {
		id, ok := d.litIDs[litKey{t.Value, t.Datatype, t.Lang}]
		if !ok {
			return Nil, false
		}
		return LiteralOID(id), true
	}
	id, ok := d.resIDs[resKey(t)]
	if !ok {
		return Nil, false
	}
	return ResourceOID(id), true
}

// Term decodes o back into a Term.
func (d *Dictionary) Term(o OID) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.termLocked(o)
}

// Terms decodes a batch of OIDs under one read lock, calling fn with
// each index and its term; ok is false for an OID the dictionary does not
// know. fn runs under the lock, so it must be short and must not call
// back into the dictionary.
func (d *Dictionary) Terms(oids []OID, fn func(i int, t Term, ok bool)) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i, o := range oids {
		t, ok := d.termLocked(o)
		fn(i, t, ok)
	}
}

func (d *Dictionary) termLocked(o OID) (Term, bool) {
	p := o.Payload()
	if p == 0 {
		return Term{}, false
	}
	if o.IsLiteral() {
		if p > uint64(len(d.litLex)) {
			return Term{}, false
		}
		k := d.litLex[p-1]
		return Term{Kind: KindLiteral, Value: k.lex, Datatype: k.datatype, Lang: k.lang}, true
	}
	if p > uint64(len(d.resKeys)) {
		return Term{}, false
	}
	key := d.resKeys[p-1]
	if len(key) >= 2 && key[0] == '_' && key[1] == ':' {
		return Term{Kind: KindBlank, Value: key[2:]}, true
	}
	return Term{Kind: KindIRI, Value: key}, true
}

// Value returns the typed value of a literal OID. Non-literal or unknown
// OIDs yield a VInvalid value.
func (d *Dictionary) Value(o OID) Value {
	if !o.IsLiteral() {
		return Value{}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := o.Payload()
	if p == 0 || p > uint64(len(d.litVals)) {
		return Value{}
	}
	return d.litVals[p-1]
}

// String renders o for display ("?" if unknown).
func (d *Dictionary) String(o OID) string {
	t, ok := d.Term(o)
	if !ok {
		return fmt.Sprintf("?oid:%s", o)
	}
	return t.String()
}

// NumResources returns the count of interned resources.
func (d *Dictionary) NumResources() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.resKeys)
}

// NumLiterals returns the count of interned literals.
func (d *Dictionary) NumLiterals() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.litLex)
}

// Remap renumbers the dictionary in place. resMap and litMap give, for
// each old payload p (1-based; index p-1), the new payload. Either map
// may be nil to leave that population untouched. Both maps must be
// bijections onto 1..n; Remap panics otherwise, since a non-bijective
// remap would silently corrupt the store.
//
// litOrdered declares that litMap puts the literals in value order
// (non-decreasing under Compare): the watermark then covers every
// literal, and literals minted afterwards become overflow. Without it
// the watermark is 0 and no literal order is claimed. Both are ignored
// when litMap is nil.
func (d *Dictionary) Remap(resMap, litMap []uint64, litOrdered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if resMap != nil {
		if len(resMap) != len(d.resKeys) {
			panic(fmt.Sprintf("dict: resource remap size %d != population %d", len(resMap), len(d.resKeys)))
		}
		newKeys := make([]string, len(d.resKeys))
		for old, nw := range resMap {
			if nw == 0 || nw > uint64(len(newKeys)) || newKeys[nw-1] != "" {
				panic("dict: resource remap is not a bijection")
			}
			newKeys[nw-1] = d.resKeys[old]
		}
		d.resKeys = newKeys
		for i, k := range newKeys {
			d.resIDs[k] = uint64(i + 1)
		}
	}
	if litMap != nil {
		if len(litMap) != len(d.litLex) {
			panic(fmt.Sprintf("dict: literal remap size %d != population %d", len(litMap), len(d.litLex)))
		}
		newLex := make([]litKey, len(d.litLex))
		newVals := make([]Value, len(d.litVals))
		seen := make([]bool, len(d.litLex))
		for old, nw := range litMap {
			if nw == 0 || nw > uint64(len(newLex)) || seen[nw-1] {
				panic("dict: literal remap is not a bijection")
			}
			seen[nw-1] = true
			newLex[nw-1] = d.litLex[old]
			newVals[nw-1] = d.litVals[old]
		}
		d.litLex, d.litVals = newLex, newVals
		for i, k := range newLex {
			d.litIDs[k] = uint64(i + 1)
		}
		d.litN, d.over, d.overNew = 0, nil, nil
		if litOrdered {
			d.litN = len(newLex)
		}
	}
}

// LiteralValues exposes the typed-value table indexed by payload-1.
// The executor uses it for vectorized decoding; callers must not mutate
// the returned slice.
func (d *Dictionary) LiteralValues() []Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.litVals
}
