// Package storage is the durability layer of the self-organizing store:
// a versioned, checksummed binary snapshot format for the whole organized
// state (dictionary, base triples, CS schema, catalog with sealed
// compressed segments, tombstones, tail rows, irregular residue) plus a
// write-ahead log that records post-Organize Add/Delete batches so the
// delta layer survives crashes.
//
// File layout of a snapshot (all integers little-endian; "uvarint" is
// Go's binary.Uvarint; OIDs use the rotated form of colstore.AppendOID):
//
//	magic "SRDFSNP1" (8 bytes)
//	version u16 · flags u16 (bit0 organized) · reserved u32
//	sections, each:  id u8 · length u64 · crc32(payload) u32 · payload
//
// Sections appear in id order: dict(1), triples(2), schema(3, organized
// only), catalog(4, organized only), segments(5, organized only). The
// segments section is the concatenation of every sealed block's payload
// in catalog traversal order; the catalog section carries the per-block
// metadata (encoding, rows, zone, length), so a reader checksums the
// payload bytes once at open but decodes nothing until a scan touches a
// block. Every section is CRC-checked at open; corrupt, truncated or
// version-skewed input yields typed errors, never panics.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"srdf/internal/colstore"
	"srdf/internal/dict"
)

// Magic identifies a snapshot file.
const Magic = "SRDFSNP1"

// Version is the current snapshot format version. v2 added the
// per-property DistinctObj statistic to serialized PropStats; v3 ends
// the dict section with the literal-order watermark (the count of
// value-ordered literal payloads) in place of the header's
// literals-ordered flag bit; v4 stores each table's tail as one subject
// list (sealed rows first) with the unsealed row count, and drops the
// sort-disturbed flag and the hole bitmap.
const Version = 4

const headerLen = 8 + 2 + 2 + 4

// Section ids.
const (
	secDict     = 1
	secTriples  = 2
	secSchema   = 3
	secCatalog  = 4
	secSegments = 5
)

func secName(id uint8) string {
	switch id {
	case secDict:
		return "dict"
	case secTriples:
		return "triples"
	case secSchema:
		return "schema"
	case secCatalog:
		return "catalog"
	case secSegments:
		return "segments"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// Header flags.
const (
	flagOrganized = 1 << 0
)

// ErrNotSnapshot reports that the input does not start with the snapshot
// magic — it is some other file, not a corrupted snapshot.
var ErrNotSnapshot = errors.New("storage: not an srdf snapshot")

// VersionError reports a snapshot written by an incompatible format
// version.
type VersionError struct {
	Got, Want uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("storage: snapshot format version %d (this build reads %d)", e.Got, e.Want)
}

// CorruptError reports structurally invalid snapshot or WAL content:
// truncation, checksum mismatch, or malformed section data.
type CorruptError struct {
	Section string
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt %s: %s", e.Section, e.Reason)
}

func corrupt(section, format string, args ...any) *CorruptError {
	return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// --- writer helpers ---------------------------------------------------

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendInt zigzag-encodes a possibly negative integer.
func appendInt(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(uint64(v)<<1)^uint64(int64(v)>>63))
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendOID(dst []byte, o dict.OID) []byte { return colstore.AppendOID(dst, o) }

func appendSection(dst []byte, id uint8, payload []byte) []byte {
	dst = append(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// --- reader helpers ---------------------------------------------------

// rd is a bounds-checked cursor with a sticky failure flag: any
// out-of-bounds or malformed read marks it bad and yields zero values, so
// parsing code stays linear and checks once per section.
type rd struct {
	b    []byte
	off  int
	sect string
	err  error
}

func (r *rd) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt(r.sect, format, args...)
	}
}

func (r *rd) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads a length prefix and validates it against both an absolute
// cap and the remaining input (each counted element needs at least one
// byte), so corrupt counts cannot trigger huge allocations.
func (r *rd) count(max int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) || v > uint64(len(r.b)-r.off) {
		r.fail("implausible count %d at offset %d", v, r.off)
		return 0
	}
	return int(v)
}

// idx reads an index that must lie in [0,n). Unlike a plain
// int(uvarint) conversion it cannot go negative on 2^63-class inputs,
// so the caller's slice access is always in bounds.
func (r *rd) idx(n int) int {
	v := r.uvarint()
	if r.err == nil && v >= uint64(n) {
		r.fail("index %d out of range (limit %d)", v, n)
		return 0
	}
	return int(v)
}

func (r *rd) intv() int {
	u := r.uvarint()
	return int(int64(u>>1) ^ -int64(u&1))
}

func (r *rd) boolv() bool { return r.byte() != 0 }

func (r *rd) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("unexpected end of section")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rd) str() string {
	n := r.count(len(r.b))
	if r.err != nil || r.off+n > len(r.b) {
		r.fail("string overruns section")
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rd) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("unexpected end of section")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *rd) oid() dict.OID {
	if r.err != nil {
		return dict.Nil
	}
	v, n := colstore.DecodeOID(r.b[r.off:])
	if n <= 0 {
		r.fail("bad OID at offset %d", r.off)
		return dict.Nil
	}
	r.off += n
	return v
}

func (r *rd) oids(n int) []dict.OID {
	out := make([]dict.OID, n)
	for i := range out {
		out[i] = r.oid()
	}
	return out
}

func (r *rd) words(n int) []uint64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+8*n > len(r.b) {
		r.fail("word array overruns section")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

func (r *rd) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return corrupt(r.sect, "%d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
