package nt_test

import (
	"bytes"
	"io"
	"testing"

	"srdf/internal/nt"
	"srdf/internal/rdfh"
)

// BenchmarkNTriplesRead reads RDF-H SF 0.0025 through the N-Triples
// reader alone: lexing and term construction, no dictionary.
func BenchmarkNTriplesRead(b *testing.B) {
	var src bytes.Buffer
	if _, err := rdfh.Generate(0.0025, 1).WriteNT(&src); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(src.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := nt.NewReader(bytes.NewReader(src.Bytes()))
		for {
			if _, err := r.Read(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
