package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"

	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/fault"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

const maxCount = 1<<31 - 1

// Snapshot is the serializable state of a store: everything Organize
// built plus the live-update delta layer. Schema and Catalog are nil for
// un-organized stores (dictionary and triples only).
type Snapshot struct {
	Organized bool
	// Dict carries its literal-order watermark in the dict section.
	Dict *dict.Dictionary
	// Triples is written in the order given — the store passes its SPO
	// projection — and read back in the order written.
	Triples *triples.Table
	Schema  *cs.Schema
	Catalog *relational.Catalog
}

// Marshal serializes the snapshot into a byte buffer. The encoding is
// fully deterministic: identical state yields identical bytes (maps are
// emitted in sorted order), so re-saving an opened snapshot is
// byte-stable. Separated from the file write so a checkpoint can
// serialize under the store lock but fsync outside it.
func Marshal(s *Snapshot) ([]byte, error) {
	out := make([]byte, 0, 1<<16)
	out = append(out, Magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	var flags uint16
	if s.Organized {
		flags |= flagOrganized
	}
	out = binary.LittleEndian.AppendUint16(out, flags)
	out = binary.LittleEndian.AppendUint32(out, 0)

	out = appendSection(out, secDict, writeDict(s.Dict))
	out = appendSection(out, secTriples, writeTriples(s.Triples))
	if s.Organized {
		if s.Schema == nil || s.Catalog == nil {
			return nil, fmt.Errorf("storage: organized snapshot without schema or catalog")
		}
		out = appendSection(out, secSchema, writeSchema(s.Schema))
		catPayload, segPayload, err := writeCatalog(s.Catalog, s.Schema)
		if err != nil {
			return nil, err
		}
		out = appendSection(out, secCatalog, catPayload)
		out = appendSection(out, secSegments, segPayload)
	}
	return out, nil
}

// Write serializes the snapshot to w.
func Write(w io.Writer, s *Snapshot) error {
	out, err := Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// WriteFileBytes atomically writes pre-marshaled snapshot bytes to path:
// a temp file in the same directory is fsynced and renamed over the
// target, so a crash mid-checkpoint leaves the previous snapshot intact.
func WriteFileBytes(path string, data []byte) error {
	return WriteFileBytesFS(fault.OS(), path, data)
}

// WriteFileBytesFS is WriteFileBytes with an injectable filesystem.
// The directory fsync after the rename is a durability write like any
// other: its failure is returned, not swallowed — a checkpoint whose
// rename could vanish on power loss must not report success. (A
// platform that cannot open directories at all is handled inside
// FS.SyncDir and is not an error.)
func WriteFileBytesFS(fsys fault.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// WriteFile marshals and atomically writes the snapshot to path.
func WriteFile(path string, s *Snapshot) error {
	data, err := Marshal(s)
	if err != nil {
		return err
	}
	return WriteFileBytes(path, data)
}

// Read deserializes a snapshot. Restored sealed columns keep references
// into data (segment payloads decode lazily on first touch), so the
// caller must not reuse or mutate the buffer. pool receives the restored
// columns' accounting; it may be nil.
func Read(data []byte, pool *colstore.BufferPool) (*Snapshot, error) {
	return readSnap(data, pool, nil)
}

// checksumReleasing computes the payload checksum; with a release hook
// (mapped snapshots) it works in chunks and releases each one's pages
// after hashing, so checksumming a file much larger than memory never
// makes the whole file resident at once.
func checksumReleasing(payload []byte, release func([]byte)) uint32 {
	const chunk = 1 << 20
	if release == nil || len(payload) <= chunk {
		return crc32.Checksum(payload, crcTable)
	}
	var sum uint32
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		sum = crc32.Update(sum, crcTable, payload[off:end])
		release(payload[off:end])
	}
	return sum
}

// readSnap is Read with an optional page-release hook for mapped input.
func readSnap(data []byte, pool *colstore.BufferPool, release func([]byte)) (*Snapshot, error) {
	if len(data) < 8 || string(data[:8]) != Magic {
		return nil, ErrNotSnapshot
	}
	if len(data) < headerLen {
		return nil, corrupt("header", "truncated")
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	flags := binary.LittleEndian.Uint16(data[10:])
	s := &Snapshot{Organized: flags&flagOrganized != 0}

	// Walk the section table, checksumming every payload.
	secs := make(map[uint8][]byte)
	off := headerLen
	for off < len(data) {
		if off+13 > len(data) {
			return nil, corrupt("section table", "truncated section header at offset %d", off)
		}
		id := data[off]
		length := binary.LittleEndian.Uint64(data[off+1:])
		sum := binary.LittleEndian.Uint32(data[off+9:])
		off += 13
		if length > uint64(len(data)-off) {
			return nil, corrupt(secName(id), "payload length %d overruns file", length)
		}
		payload := data[off : off+int(length) : off+int(length)]
		off += int(length)
		if checksumReleasing(payload, release) != sum {
			return nil, corrupt(secName(id), "checksum mismatch")
		}
		if _, dup := secs[id]; dup {
			return nil, corrupt(secName(id), "duplicate section")
		}
		secs[id] = payload
	}

	need := []uint8{secDict, secTriples}
	if s.Organized {
		need = append(need, secSchema, secCatalog, secSegments)
	}
	for _, id := range need {
		if _, ok := secs[id]; !ok {
			return nil, corrupt(secName(id), "section missing")
		}
	}

	var err error
	if s.Dict, err = readDict(secs[secDict]); err != nil {
		return nil, err
	}
	if s.Triples, err = readTriples(secs[secTriples]); err != nil {
		return nil, err
	}
	if s.Organized {
		if s.Schema, err = readSchema(secs[secSchema]); err != nil {
			return nil, err
		}
		if s.Catalog, err = readCatalog(secs[secCatalog], secs[secSegments], s.Schema, pool); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ReadFile reads a snapshot file.
func ReadFile(path string, pool *colstore.BufferPool) (*Snapshot, error) {
	return ReadFileFS(fault.OS(), path, pool)
}

// ReadFileFS is ReadFile with an injectable filesystem.
func ReadFileFS(fsys fault.FS, path string, pool *colstore.BufferPool) (*Snapshot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Read(data, pool)
}

// --- dict -------------------------------------------------------------

func writeDict(d *dict.Dictionary) []byte {
	res := d.ExportResources()
	lits := d.ExportLiterals()
	b := make([]byte, 0, 16*(len(res)+len(lits)))
	b = binary.AppendUvarint(b, uint64(len(res)))
	for _, k := range res {
		b = appendStr(b, k)
	}
	b = binary.AppendUvarint(b, uint64(len(lits)))
	for _, l := range lits {
		b = appendStr(b, l.Lex)
		b = appendStr(b, l.Datatype)
		b = appendStr(b, l.Lang)
	}
	ordered, _ := d.LiteralOrderCounts()
	return binary.AppendUvarint(b, uint64(ordered))
}

func readDict(payload []byte) (*dict.Dictionary, error) {
	r := &rd{b: payload, sect: "dict"}
	res := make([]string, r.count(maxCount))
	for i := range res {
		res[i] = r.str()
	}
	lits := make([]dict.LiteralRec, r.count(maxCount))
	for i := range lits {
		lits[i] = dict.LiteralRec{Lex: r.str(), Datatype: r.str(), Lang: r.str()}
	}
	ordered := r.idx(len(lits) + 1)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return dict.RestoreDictionary(res, lits, ordered), nil
}

// --- triples ----------------------------------------------------------

func writeTriplesInto(b []byte, t *triples.Table) []byte {
	b = binary.AppendUvarint(b, uint64(t.Len()))
	for _, o := range t.S {
		b = appendOID(b, o)
	}
	for _, o := range t.P {
		b = appendOID(b, o)
	}
	for _, o := range t.O {
		b = appendOID(b, o)
	}
	return b
}

func writeTriples(t *triples.Table) []byte {
	return writeTriplesInto(make([]byte, 0, 6*t.Len()), t)
}

func readTriplesFrom(r *rd) *triples.Table {
	n := r.count(maxCount)
	t := triples.NewTable(n)
	t.S = append(t.S, r.oids(n)...)
	t.P = append(t.P, r.oids(n)...)
	t.O = append(t.O, r.oids(n)...)
	return t
}

func readTriples(payload []byte) (*triples.Table, error) {
	r := &rd{b: payload, sect: "triples"}
	t := readTriplesFrom(r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	return t, nil
}

// --- schema -----------------------------------------------------------

func writePropStat(b []byte, p *cs.PropStat) []byte {
	b = appendOID(b, p.Pred)
	b = appendStr(b, p.Name)
	b = binary.AppendUvarint(b, uint64(p.NonNull))
	b = binary.AppendUvarint(b, uint64(p.ValueCount))
	b = binary.AppendUvarint(b, uint64(p.MultiSubjects))
	b = binary.AppendUvarint(b, uint64(p.DistinctObj))
	kinds := make([]int, 0, len(p.TypeHist))
	for k := range p.TypeHist {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	b = binary.AppendUvarint(b, uint64(len(kinds)))
	for _, k := range kinds {
		b = append(b, byte(k))
		b = binary.AppendUvarint(b, uint64(p.TypeHist[dict.ValueKind(k)]))
	}
	b = append(b, byte(p.Kind))
	b = appendBool(b, p.Nullable)
	b = appendBool(b, p.SplitOff)
	b = appendInt(b, p.FKTarget)
	return b
}

func readPropStat(r *rd) cs.PropStat {
	p := cs.PropStat{
		Pred:          r.oid(),
		Name:          r.str(),
		NonNull:       int(r.uvarint()),
		ValueCount:    int(r.uvarint()),
		MultiSubjects: int(r.uvarint()),
		DistinctObj:   int(r.uvarint()),
	}
	nh := r.count(maxCount)
	if nh > 0 {
		p.TypeHist = make(map[dict.ValueKind]int, nh)
		for i := 0; i < nh; i++ {
			k := dict.ValueKind(r.byte())
			p.TypeHist[k] = int(r.uvarint())
		}
	}
	p.Kind = dict.ValueKind(r.byte())
	p.Nullable = r.boolv()
	p.SplitOff = r.boolv()
	p.FKTarget = r.intv()
	return p
}

func writeCS(b []byte, c *cs.CS) []byte {
	b = binary.AppendUvarint(b, uint64(c.ID))
	b = appendStr(b, c.Name)
	b = binary.AppendUvarint(b, uint64(len(c.Props)))
	for i := range c.Props {
		b = writePropStat(b, &c.Props[i])
	}
	b = binary.AppendUvarint(b, uint64(len(c.Subjects)))
	for _, s := range c.Subjects {
		b = appendOID(b, s)
	}
	b = binary.AppendUvarint(b, uint64(c.Support))
	b = binary.AppendUvarint(b, uint64(c.InRefs))
	b = appendBool(b, c.Retained)
	b = appendInt(b, c.AbsorbedInto)
	b = appendOID(b, c.TypeObj)
	b = binary.AppendUvarint(b, uint64(c.MergedFrom))
	return b
}

func readCS(r *rd) *cs.CS {
	c := &cs.CS{
		ID:    int(r.uvarint()),
		Name:  r.str(),
		Props: make([]cs.PropStat, r.count(maxCount)),
	}
	for i := range c.Props {
		c.Props[i] = readPropStat(r)
	}
	c.Subjects = r.oids(r.count(maxCount))
	c.Support = int(r.uvarint())
	c.InRefs = int(r.uvarint())
	c.Retained = r.boolv()
	c.AbsorbedInto = r.intv()
	c.TypeObj = r.oid()
	c.MergedFrom = int(r.uvarint())
	return c
}

func writeSchema(s *cs.Schema) []byte {
	b := make([]byte, 0, 1<<12)
	o := s.Opts
	b = binary.AppendUvarint(b, uint64(o.MinSupport))
	b = appendFloat(b, o.MinPropFrac)
	b = appendFloat(b, o.SimilarityMerge)
	b = appendBool(b, o.TypeSplit)
	b = binary.AppendUvarint(b, uint64(o.MaxTypeVariants))
	b = appendFloat(b, o.RefFrac)
	b = appendFloat(b, o.MultiValuedAvg)
	b = appendBool(b, o.Merge11)
	b = appendBool(b, o.RescueReferenced)

	b = appendFloat(b, s.Coverage)
	b = binary.AppendUvarint(b, uint64(s.TotalTriples))
	b = binary.AppendUvarint(b, uint64(s.IrregularTriples))
	b = binary.AppendUvarint(b, uint64(s.RawCSCount))

	b = binary.AppendUvarint(b, uint64(len(s.CSs)))
	for _, c := range s.CSs {
		b = writeCS(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(s.FKs)))
	for _, fk := range s.FKs {
		b = appendInt(b, fk.From)
		b = appendInt(b, fk.To)
		b = appendOID(b, fk.Pred)
		b = appendStr(b, fk.Name)
		b = binary.AppendUvarint(b, uint64(fk.Count))
		b = appendBool(b, fk.OneToOne)
	}
	subs := make([]dict.OID, 0, len(s.SubjectCS))
	for o := range s.SubjectCS {
		subs = append(subs, o)
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for _, o := range subs {
		b = appendOID(b, o)
		b = binary.AppendUvarint(b, uint64(s.SubjectCS[o]))
	}
	return b
}

func readSchema(payload []byte) (*cs.Schema, error) {
	r := &rd{b: payload, sect: "schema"}
	s := &cs.Schema{}
	s.Opts.MinSupport = int(r.uvarint())
	s.Opts.MinPropFrac = r.float()
	s.Opts.SimilarityMerge = r.float()
	s.Opts.TypeSplit = r.boolv()
	s.Opts.MaxTypeVariants = int(r.uvarint())
	s.Opts.RefFrac = r.float()
	s.Opts.MultiValuedAvg = r.float()
	s.Opts.Merge11 = r.boolv()
	s.Opts.RescueReferenced = r.boolv()

	s.Coverage = r.float()
	s.TotalTriples = int(r.uvarint())
	s.IrregularTriples = int(r.uvarint())
	s.RawCSCount = int(r.uvarint())

	s.CSs = make([]*cs.CS, r.count(maxCount))
	for i := range s.CSs {
		s.CSs[i] = readCS(r)
		if r.err == nil && s.CSs[i].ID != i {
			r.fail("CS %d has id %d", i, s.CSs[i].ID)
		}
	}
	s.FKs = make([]cs.FK, r.count(maxCount))
	for i := range s.FKs {
		s.FKs[i] = cs.FK{
			From:     r.intv(),
			To:       r.intv(),
			Pred:     r.oid(),
			Name:     r.str(),
			Count:    int(r.uvarint()),
			OneToOne: r.boolv(),
		}
	}
	ns := r.count(maxCount)
	s.SubjectCS = make(map[dict.OID]int, ns)
	for i := 0; i < ns; i++ {
		o := r.oid()
		s.SubjectCS[o] = r.idx(len(s.CSs))
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- catalog ----------------------------------------------------------

func writeBitmap(b []byte, bm *relational.Bitmap) []byte {
	words := bm.Words()
	b = binary.AppendUvarint(b, uint64(len(words)))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

func readBitmap(r *rd) *relational.Bitmap {
	return relational.BitmapFromWords(r.words(r.count(maxCount)))
}

// writeTableCS serializes a table's CS as a schema reference plus the
// only fields Compact's per-table refinement can diverge from the
// schema's frozen copy (Props stats and Support) — the subject lists,
// the dominant payload, live once in the schema section.
func writeTableCS(b []byte, c *cs.CS) []byte {
	b = binary.AppendUvarint(b, uint64(c.ID))
	b = binary.AppendUvarint(b, uint64(c.Support))
	b = binary.AppendUvarint(b, uint64(len(c.Props)))
	for i := range c.Props {
		b = writePropStat(b, &c.Props[i])
	}
	return b
}

func readTableCS(r *rd, schema *cs.Schema) *cs.CS {
	id := r.idx(len(schema.CSs))
	support := int(r.uvarint())
	props := make([]cs.PropStat, r.count(maxCount))
	for i := range props {
		props[i] = readPropStat(r)
	}
	if r.err != nil {
		return &cs.CS{}
	}
	c := *schema.CSs[id] // shares Subjects; Props/Support are table-local
	c.Support = support
	c.Props = props
	return &c
}

func writeCatalog(cat *relational.Catalog, schema *cs.Schema) (catPayload, segPayload []byte, err error) {
	b := make([]byte, 0, 1<<14)
	var segs []byte
	tblIdx := make(map[*relational.Table]int, len(cat.Tables))
	// FK columns are resolved by CS id, not table pointer: Col structs
	// are shared across catalog clones while tables are cloned, so the
	// FKTable pointer may refer to a previous clone of the same table.
	csIdx := make(map[int]int, len(cat.Tables))
	for i, t := range cat.Tables {
		tblIdx[t] = i
		csIdx[t.CS.ID] = i
	}

	b = binary.AppendUvarint(b, uint64(len(cat.Tables)))
	for _, t := range cat.Tables {
		b = appendStr(b, t.Name)
		b = binary.AppendUvarint(b, t.Base)
		b = binary.AppendUvarint(b, uint64(t.Count))
		b = appendOID(b, t.SortPred)
		b = appendBool(b, t.Hidden)
		b = writeTableCS(b, t.CS)

		b = binary.AppendUvarint(b, uint64(len(t.Cols)))
		for _, c := range t.Cols {
			b = writePropStat(b, c.Prop)
			fk := -1
			if c.FKTable != nil {
				var ok bool
				if fk, ok = csIdx[c.FKTable.CS.ID]; !ok {
					return nil, nil, fmt.Errorf("storage: column %s references a table outside the catalog", c.Data.Name)
				}
			}
			b = appendInt(b, fk)
			b = appendBool(b, c.Folded)
			b = appendStr(b, c.Data.Name)
			b = binary.AppendUvarint(b, uint64(c.Data.NullCount()))
			var metas []colstore.BlockMeta
			segs, metas, err = c.Data.MarshalBlocks(segs)
			if err != nil {
				return nil, nil, err
			}
			b = binary.AppendUvarint(b, uint64(len(metas)))
			for _, m := range metas {
				b = append(b, byte(m.Enc))
				b = binary.AppendUvarint(b, uint64(m.Rows))
				var zf byte
				if m.Zone.HasNull {
					zf |= 1
				}
				if m.Zone.AllNull {
					zf |= 2
				}
				b = append(b, zf)
				b = appendOID(b, m.Zone.Min)
				b = appendOID(b, m.Zone.Max)
				b = binary.AppendUvarint(b, uint64(m.Len))
			}
		}

		b = binary.AppendUvarint(b, uint64(len(t.Tail)))
		for _, s := range t.Tail {
			b = appendOID(b, s)
		}
		b = writeBitmap(b, t.Del)
		b = binary.AppendUvarint(b, uint64(t.DeltaLen()))
		for _, col := range t.Delta {
			for _, v := range col {
				b = appendOID(b, v)
			}
		}
	}

	b = binary.AppendUvarint(b, uint64(len(cat.Links)))
	for _, lt := range cat.Links {
		pi, ok := tblIdx[lt.Parent]
		if !ok {
			return nil, nil, fmt.Errorf("storage: link table %s has a parent outside the catalog", lt.Name)
		}
		b = appendStr(b, lt.Name)
		b = binary.AppendUvarint(b, uint64(pi))
		b = appendOID(b, lt.Pred)
		b = binary.AppendUvarint(b, uint64(len(lt.Subj)))
		for i := range lt.Subj {
			b = appendOID(b, lt.Subj[i])
			b = appendOID(b, lt.Val[i])
		}
	}

	b = writeTriplesInto(b, cat.IrregularIdx.Triples())
	return b, segs, nil
}

func readCatalog(payload, segData []byte, schema *cs.Schema, pool *colstore.BufferPool) (*relational.Catalog, error) {
	r := &rd{b: payload, sect: "catalog"}
	segOff := 0

	nt := r.count(maxCount)
	tables := make([]*relational.Table, 0, nt)
	type fkRef struct {
		col *relational.Col
		idx int
	}
	var fkRefs []fkRef
	for ti := 0; ti < nt; ti++ {
		t := &relational.Table{
			Name:  r.str(),
			Base:  r.uvarint(),
			Count: int(r.uvarint()),
		}
		t.SortPred = r.oid()
		t.Hidden = r.boolv()
		t.CS = readTableCS(r, schema)

		nc := r.count(maxCount)
		for ci := 0; ci < nc; ci++ {
			ps := readPropStat(r)
			fk := r.intv()
			folded := r.boolv()
			colName := r.str()
			nullCount := int(r.uvarint())
			nb := r.count(maxCount)
			metas := make([]colstore.BlockMeta, nb)
			total := 0
			for bi := 0; bi < nb; bi++ {
				m := colstore.BlockMeta{Enc: colstore.Encoding(r.byte())}
				m.Rows = int(r.uvarint())
				zf := r.byte()
				m.Zone.HasNull = zf&1 != 0
				m.Zone.AllNull = zf&2 != 0
				m.Zone.Min = r.oid()
				m.Zone.Max = r.oid()
				m.Len = int(r.uvarint())
				if r.err == nil && (m.Len < 0 || m.Len > len(segData)-segOff-total) {
					r.fail("column %s block %d overruns segment section", colName, bi)
				}
				total += m.Len
				metas[bi] = m
			}
			if r.err != nil {
				return nil, r.err
			}
			data, err := colstore.RestoreSealed(colName, nullCount, metas, segData[segOff:segOff+total], pool)
			if err != nil {
				return nil, corrupt("catalog", "%v", err)
			}
			segOff += total

			// CS-owned columns point into the table CS's PropStats (so a
			// later Compact refresh re-finds them); folded copies keep the
			// private stats they were written with.
			prop := &ps
			if own := t.CS.Prop(ps.Pred); own != nil && own.Name == ps.Name {
				prop = own
			}
			col := &relational.Col{Prop: prop, Data: data, Folded: folded}
			if fk >= 0 {
				fkRefs = append(fkRefs, fkRef{col: col, idx: fk})
			} else if fk != -1 {
				return nil, corrupt("catalog", "column %s has FK index %d", colName, fk)
			}
			t.Cols = append(t.Cols, col)
		}

		tail := r.oids(r.count(maxCount))
		del := readBitmap(r)
		nd := r.count(maxCount)
		cols := make([][]dict.OID, len(t.Cols))
		for ci := range cols {
			cols[ci] = r.oids(nd)
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := t.RestoreTail(tail, del, nd, cols); err != nil {
			return nil, corrupt("catalog", "table %s: %v", t.Name, err)
		}
		for _, c := range t.Cols {
			if c.Data.Len() != t.SealedRows() {
				return nil, corrupt("catalog", "table %s column %s has %d rows, want %d",
					t.Name, c.Data.Name, c.Data.Len(), t.SealedRows())
			}
		}
		tables = append(tables, t)
	}
	for _, ref := range fkRefs {
		if ref.idx >= len(tables) {
			return nil, corrupt("catalog", "FK reference to table %d of %d", ref.idx, len(tables))
		}
		ref.col.FKTable = tables[ref.idx]
	}

	nl := r.count(maxCount)
	links := make([]*relational.LinkTable, 0, nl)
	for li := 0; li < nl; li++ {
		lt := &relational.LinkTable{Name: r.str()}
		pi := r.idx(len(tables))
		lt.Pred = r.oid()
		n := r.count(maxCount)
		lt.Subj = make([]dict.OID, n)
		lt.Val = make([]dict.OID, n)
		for i := 0; i < n; i++ {
			lt.Subj[i] = r.oid()
			lt.Val[i] = r.oid()
		}
		if r.err != nil {
			return nil, r.err
		}
		lt.Parent = tables[pi]
		links = append(links, lt)
	}

	irregular := readTriplesFrom(r)
	if err := r.finish(); err != nil {
		return nil, err
	}
	if segOff != len(segData) {
		return nil, corrupt("segments", "%d trailing bytes", len(segData)-segOff)
	}
	return relational.AssembleCatalog(tables, links, irregular), nil
}
