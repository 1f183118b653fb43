package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"srdf/internal/triples"
)

// MarshalRowOrder is Marshal with the rows of the triples section and of
// the catalog's irregular residue in the order reorder gives them: the
// layout of files written before both sections were in SPO order, when
// their rows came out in update order.
func MarshalRowOrder(s *Snapshot, reorder func(*triples.Table) *triples.Table) ([]byte, error) {
	c := *s
	c.Triples = reorder(s.Triples)
	data, err := Marshal(&c)
	if err != nil || c.Catalog == nil {
		return data, err
	}
	// The residue closes the catalog section, and its rows in any order
	// encode to as many bytes: swap them in and re-checksum the section.
	irr := c.Catalog.IrregularIdx.Triples()
	was, now := writeTriples(irr), writeTriples(reorder(irr))
	for off := headerLen; off < len(data); {
		id, n := data[off], int(binary.LittleEndian.Uint64(data[off+1:]))
		payload := data[off+13 : off+13+n]
		if id == secCatalog {
			tail := payload[len(payload)-len(was):]
			if !bytes.Equal(tail, was) || len(now) != len(was) {
				return nil, fmt.Errorf("storage: the catalog section does not end with the residue")
			}
			copy(tail, now)
			binary.LittleEndian.PutUint32(data[off+9:], crc32.Checksum(payload, crcTable))
		}
		off += 13 + n
	}
	return data, nil
}
