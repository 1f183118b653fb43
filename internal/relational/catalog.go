// Package relational materializes the emergent schema as relational
// tables over aligned columns (paper Fig. 1: "Relational Table Storage"
// beside "Triple Table Storage"). Each retained CS becomes a table whose
// row i holds the property values of the CS's i-th clustered subject;
// multi-valued properties become link tables; triples outside the schema
// stay in an irregular residue, an index set of triples. The catalog
// also renders the SQL view of the data (research question ii).
package relational

import (
	"fmt"
	"sort"
	"strings"

	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/triples"
)

// Col is one materialized column of a table.
type Col struct {
	Prop *cs.PropStat
	Data *colstore.Column
	// FKTable is the referenced table when the column is a foreign key.
	FKTable *Table
	// Folded marks columns involved in 1-1 unification: either an FK
	// into an absorbed table (hidden from DDL) or a column copied up
	// from one.
	Folded bool
}

// Table is a materialized CS: its clustered run plus one tail. In the
// run, subject payload Base+i is row i and the sort-key column is
// ascending, which zone maps and subject windows prune on. Rows past
// the run belong to subjects added since Organize: the tail's leading
// rows were sealed by Compact, its last DeltaLen() rows are unsealed
// (see delta.go). Deletes only set bits in Del; no cell of the run is
// rewritten before the next Organize.
type Table struct {
	CS   *cs.CS
	Name string
	// Base/Count delimit the table's clustered subject-OID range:
	// subject payload Base+i is row i.
	Base  uint64
	Count int
	// SortPred is the sub-ordering property (Nil if none); its column is
	// physically ascending over the clustered run, which the planner
	// exploits for range predicates via zone maps.
	SortPred dict.OID
	Cols     []*Col
	// Hidden tables (absorbed 1-1 CSs) are materialized but not exported.
	Hidden bool

	// Tail holds the subjects of the rows past the clustered run: row
	// Count+i belongs to Tail[i]. tailRow maps each live tail subject
	// to its row; a tail subject vacated from a sealed row stays in Tail
	// (tombstoned) until Compact drops the row.
	Tail    []dict.OID
	tailRow map[dict.OID]int
	// Del tombstones sealed rows whose subject was deleted or moved to a
	// delta row; scans filter it out.
	Del *Bitmap
	// Delta holds the cells of the last DeltaLen() tail rows, which are
	// not sealed yet: one slice per column, aligned to Cols (nil when
	// there are none).
	Delta    [][]dict.OID
	unsealed int
}

// Col returns the column for a predicate, or nil.
func (t *Table) Col(pred dict.OID) *Col {
	for _, c := range t.Cols {
		if c.Prop.Pred == pred {
			return c
		}
	}
	return nil
}

// ColByName returns the column with the given SQL name, or nil.
func (t *Table) ColByName(name string) *Col {
	for _, c := range t.Cols {
		if c.Prop.Name == name {
			return c
		}
	}
	return nil
}

// SubjectOID returns the subject OID of physical row i: clustered rows
// by OID arithmetic, tail rows from Tail.
func (t *Table) SubjectOID(i int) dict.OID {
	if i < t.Count {
		return dict.ResourceOID(t.Base + uint64(i))
	}
	return t.Tail[i-t.Count]
}

// RowOf returns the physical row currently holding subject s's data —
// its tail row, else its live clustered row — or -1. A tombstoned
// clustered row does not resolve: its subject moved to the tail or
// was deleted.
func (t *Table) RowOf(s dict.OID) int {
	if r, ok := t.tailRow[s]; ok {
		return r
	}
	return t.DenseLiveRow(s)
}

// Clustered reports whether the table is its clustered run alone: with
// no tail row, every row's subject is Base+row and the sort-key column
// is ascending over all of them. Tombstones are allowed; scans filter
// them.
func (t *Table) Clustered() bool { return len(t.Tail) == 0 }

// LinkTable stores a multi-valued property split off from its CS
// ("in case the multiplicity is > 2 splitting it off into a separate
// table"). Rows are (subject, value) pairs ordered by subject, so the
// executor can merge them against the parent's clustered subjects.
type LinkTable struct {
	Name   string
	Parent *Table
	Pred   dict.OID
	Subj   []dict.OID
	Val    []dict.OID
}

// Catalog is the complete materialized store.
type Catalog struct {
	Tables []*Table
	Links  []*LinkTable
	// IrregularIdx holds every triple the tables do not answer: the
	// irregular residue, indexed for fallback access.
	IrregularIdx *triples.IndexSet

	byName map[string]*Table
	byCS   map[int]*Table
}

// TableOf returns the table (hidden ones included) currently holding s,
// or nil: the table whose tail holds s, else the one whose clustered
// range holds it live. A subject whose clustered row is tombstoned and
// that sits in no tail resolves to nil — it was deleted.
func (cat *Catalog) TableOf(s dict.OID) *Table {
	for _, t := range cat.Tables {
		if _, ok := t.tailRow[s]; ok {
			return t
		}
	}
	if t := cat.denseTableOf(s); t != nil && t.DenseLiveRow(s) >= 0 {
		return t
	}
	return nil
}

// ByName returns a visible table by name.
func (cat *Catalog) ByName(name string) *Table {
	t := cat.byName[name]
	if t == nil || t.Hidden {
		return nil
	}
	return t
}

// ByCS returns the table of a CS id (hidden ones included).
func (cat *Catalog) ByCS(id int) *Table { return cat.byCS[id] }

// Visible returns the exported tables in catalog order.
func (cat *Catalog) Visible() []*Table {
	var out []*Table
	for _, t := range cat.Tables {
		if !t.Hidden {
			out = append(out, t)
		}
	}
	return out
}

// BuildCatalog materializes the schema over the clustered store. tb must
// already be reorganized by cluster.Reorganize, with inf its outcome.
func BuildCatalog(tb *triples.Table, d *dict.Dictionary, schema *cs.Schema, inf *cluster.Info, pool *colstore.BufferPool) *Catalog {
	return BuildCatalogSPO(triples.Build(tb, triples.SPO), schema, inf, pool)
}

// BuildCatalogSPO is BuildCatalog for a caller that already holds the
// reorganized table's SPO projection — the store's index set sorts it
// anyway, and the catalog only reads it.
func BuildCatalogSPO(spo *triples.Projection, schema *cs.Schema, inf *cluster.Info, pool *colstore.BufferPool) *Catalog {
	cat := &Catalog{
		byName: make(map[string]*Table),
		byCS:   make(map[int]*Table),
	}
	// Create table shells.
	for _, c := range schema.CSs {
		if !c.Retained {
			continue
		}
		r, ok := inf.RangeOf(c.ID)
		if !ok {
			continue
		}
		t := &Table{
			CS:       c,
			Name:     c.Name,
			Base:     r.Base,
			Count:    r.Count,
			SortPred: r.SortPred,
			Hidden:   c.AbsorbedInto >= 0,
		}
		for i := range c.Props {
			ps := &c.Props[i]
			if ps.SplitOff {
				continue
			}
			t.Cols = append(t.Cols, &Col{
				Prop: ps,
				Data: colstore.NewColumn(t.Name+"."+ps.Name, t.Count, pool),
			})
		}
		cat.Tables = append(cat.Tables, t)
		cat.byName[t.Name] = t
		cat.byCS[c.ID] = t
	}
	// Link-table shells.
	links := make(map[[2]uint64]*LinkTable) // (cs id, pred) -> link
	for _, t := range cat.Tables {
		for i := range t.CS.Props {
			ps := &t.CS.Props[i]
			if !ps.SplitOff {
				continue
			}
			lt := &LinkTable{
				Name:   t.Name + "_" + ps.Name,
				Parent: t,
				Pred:   ps.Pred,
			}
			cat.Links = append(cat.Links, lt)
			links[[2]uint64{uint64(t.CS.ID), uint64(ps.Pred)}] = lt
		}
	}

	// Fill: one pass over SPO in clustered subject order, so the residue
	// comes out in SPO order too and its index set adopts it unsorted.
	irregular := triples.NewTable(0)
	spo.Distinct1(func(s dict.OID, lo, hi int) {
		csID, ok := schema.SubjectCS[s]
		if !ok {
			for i := lo; i < hi; i++ {
				irregular.Append(s, spo.B[i], spo.C[i])
			}
			return
		}
		t := cat.byCS[csID]
		row := t.RowOf(s)
		if row < 0 {
			for i := lo; i < hi; i++ {
				irregular.Append(s, spo.B[i], spo.C[i])
			}
			return
		}
		spo.Distinct2(lo, hi, func(p dict.OID, l, h int) {
			if lt, ok := links[[2]uint64{uint64(csID), uint64(p)}]; ok {
				for i := l; i < h; i++ {
					lt.Subj = append(lt.Subj, s)
					lt.Val = append(lt.Val, spo.C[i])
				}
				return
			}
			col := t.Col(p)
			if col == nil {
				for i := l; i < h; i++ {
					irregular.Append(s, p, spo.C[i])
				}
				return
			}
			col.Data.Set(row, spo.C[l])
			// overflow values of a 0..1 column stay irregular
			for i := l + 1; i < h; i++ {
				irregular.Append(s, p, spo.C[i])
			}
		})
	})

	// Resolve FK column targets.
	for _, t := range cat.Tables {
		for _, c := range t.Cols {
			if c.Prop.FKTarget >= 0 {
				c.FKTable = cat.byCS[c.Prop.FKTarget]
			}
		}
	}
	cat.foldAbsorbed(pool)
	// Freeze every materialized column into compressed segments: from
	// here on scans filter on the compressed form via selection-vector
	// kernels, and the pool's stats reflect the real resident size.
	for _, t := range cat.Tables {
		for _, c := range t.Cols {
			c.Data.Seal()
		}
	}
	cat.IrregularIdx = triples.NewIndexSet(irregular)
	return cat
}

// foldAbsorbed unifies 1-1 linked CS's: the hidden (absorbed) table's
// columns are materialized into the parent by following the FK per row,
// under prefixed names ("unifying CS's that are 1-1 linked; which is
// often the case for blank nodes"). The hidden table remains queryable
// for star patterns over the blank nodes themselves.
func (cat *Catalog) foldAbsorbed(pool *colstore.BufferPool) {
	for _, child := range cat.Tables {
		if !child.Hidden {
			continue
		}
		parent := cat.byCS[child.CS.AbsorbedInto]
		if parent == nil {
			child.Hidden = false // orphaned; keep visible
			continue
		}
		// Find the parent's FK column into the child.
		var fkCol *Col
		for _, c := range parent.Cols {
			if c.FKTable == child {
				fkCol = c
				break
			}
		}
		if fkCol == nil {
			child.Hidden = false
			continue
		}
		fkCol.Folded = true
		used := map[string]bool{"id": true}
		for _, c := range parent.Cols {
			used[c.Prop.Name] = true
		}
		for _, cc := range child.Cols {
			ps := *cc.Prop // copy, parent-owned
			base := fkCol.Prop.Name + "_" + ps.Name
			name := base
			for i := 2; used[name]; i++ {
				name = fmt.Sprintf("%s%d", base, i)
			}
			used[name] = true
			ps.Name = name
			data := colstore.NewColumn(parent.Name+"."+name, parent.Count, pool)
			for row := 0; row < parent.Count; row++ {
				ref := fkCol.Data.Vals[row]
				if ref == dict.Nil {
					continue
				}
				crow := child.RowOf(ref)
				if crow < 0 {
					continue
				}
				data.Set(row, cc.Data.Vals[crow])
			}
			parent.Cols = append(parent.Cols, &Col{Prop: &ps, Data: data, Folded: true})
		}
	}
}

// DDL renders the emergent schema as SQL CREATE TABLE statements —
// "users will gain an SQL view of the regular part of the RDF data".
func (cat *Catalog) DDL(d *dict.Dictionary) string {
	var b strings.Builder
	for _, t := range cat.Visible() {
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", t.Name)
		lines := []string{fmt.Sprintf("id VARCHAR PRIMARY KEY -- subject (%d rows)", t.LiveCount())}
		for _, c := range t.Cols {
			if c.Folded && c.FKTable != nil && c.FKTable.Hidden {
				continue // FK into an absorbed table: unified away
			}
			null := " NOT NULL"
			if c.Prop.Nullable {
				null = ""
			}
			typ := c.Prop.Kind.SQLType()
			ref := ""
			if c.FKTable != nil && !c.FKTable.Hidden {
				typ = "VARCHAR"
				ref = fmt.Sprintf(" REFERENCES %s(id)", c.FKTable.Name)
			} else if c.Prop.Kind == cs.RefKind {
				typ = "VARCHAR"
			}
			pred := ""
			if tm, ok := d.Term(c.Prop.Pred); ok {
				pred = " -- <" + tm.Value + ">"
			}
			lines = append(lines, fmt.Sprintf("%s %s%s%s%s", c.Prop.Name, typ, null, ref, pred))
		}
		for i, ln := range lines {
			// the comment is after the comma-bearing part
			comma := ","
			if i == len(lines)-1 {
				comma = ""
			}
			if idx := strings.Index(ln, " --"); idx >= 0 {
				fmt.Fprintf(&b, "  %s%s%s\n", ln[:idx], comma, ln[idx:])
			} else {
				fmt.Fprintf(&b, "  %s%s\n", ln, comma)
			}
		}
		b.WriteString(");\n")
	}
	for _, lt := range cat.Links {
		if lt.Parent.Hidden {
			continue
		}
		fmt.Fprintf(&b, "CREATE TABLE %s (\n  id VARCHAR REFERENCES %s(id),\n  %s VARCHAR\n); -- multi-valued property, %d rows\n",
			lt.Name, lt.Parent.Name, linkColName(lt), len(lt.Subj))
	}
	return b.String()
}

func linkColName(lt *LinkTable) string {
	if ps := lt.Parent.CS.Prop(lt.Pred); ps != nil {
		return ps.Name
	}
	return "value"
}

// Stats summarizes the catalog.
type Stats struct {
	Tables           int
	LinkTables       int
	Rows             int
	Columns          int
	IrregularTriples int
	// DeltaRows counts unsealed delta rows awaiting Compact; Tombstones
	// counts sealed rows masked by the delete bitmaps.
	DeltaRows  int
	Tombstones int
}

// Stats returns catalog-level counters.
func (cat *Catalog) Stats() Stats {
	var s Stats
	for _, t := range cat.Visible() {
		s.Tables++
		s.Rows += t.LiveCount()
		s.Columns += len(t.Cols)
	}
	for _, t := range cat.Tables {
		s.DeltaRows += t.DeltaLen()
		s.Tombstones += t.Del.Count()
	}
	s.LinkTables = len(cat.Links)
	s.IrregularTriples = cat.IrregularIdx.Len()
	return s
}

// DumpCSV renders up to limit live rows of a table as CSV (decoded
// terms) — the live clustered rows, then the live tail rows — for the
// SQL-toolchain-facing view and for debugging.
func (cat *Catalog) DumpCSV(t *Table, d *dict.Dictionary, limit int) string {
	var b strings.Builder
	b.WriteString("id")
	for _, c := range t.Cols {
		b.WriteString(",")
		b.WriteString(c.Prop.Name)
	}
	b.WriteString("\n")
	// decode without touching the buffer pool: a debug dump must not
	// perturb the page stats the pool exists to measure
	cols := make([][]dict.OID, len(t.Cols))
	for ci, c := range t.Cols {
		cols[ci] = c.Data.Values()
		if t.DeltaLen() > 0 {
			cols[ci] = append(cols[ci], t.Delta[ci]...)
		}
	}
	for i, n := 0, 0; i < t.NumRows() && (limit <= 0 || n < limit); i++ {
		if t.Del.Get(i) {
			continue
		}
		n++
		b.WriteString(csvCell(d, t.SubjectOID(i)))
		for _, vals := range cols {
			b.WriteString(",")
			if vals[i] == dict.Nil {
				continue
			}
			b.WriteString(csvCell(d, vals[i]))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvCell(d *dict.Dictionary, o dict.OID) string {
	tm, ok := d.Term(o)
	if !ok {
		return ""
	}
	var s string
	switch tm.Kind {
	case dict.KindLiteral:
		s = tm.Value
	case dict.KindBlank:
		s = "_:" + tm.Value
	default:
		s = tm.Value
	}
	if strings.ContainsAny(s, ",\"\n") {
		s = `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// SortedTables returns visible tables ordered by descending row count,
// the natural order for schema displays.
func (cat *Catalog) SortedTables() []*Table {
	out := cat.Visible()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}
