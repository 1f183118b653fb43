package sparql_test

import (
	"testing"

	"srdf/internal/rdfh"
	"srdf/internal/sparql"
)

func benchParse(b *testing.B, src string) {
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPARQLParse_Lookup parses the lineitem-star point lookup of
// the bench/ serve.lookup workload, a text every request parses anew.
func BenchmarkSPARQLParse_Lookup(b *testing.B) {
	benchParse(b, "PREFIX rdfh: <"+rdfh.NS+">\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"+
		"SELECT ?li ?q ?ep WHERE { ?li rdfh:lineitem_order <"+rdfh.OrderIRI(4711)+
		"> . ?li rdfh:lineitem_quantity ?q . ?li rdfh:lineitem_extendedprice ?ep }")
}

// BenchmarkSPARQLParse_Q5 parses RDF-H Q5, the widest query text.
func BenchmarkSPARQLParse_Q5(b *testing.B) { benchParse(b, rdfh.Q5()) }
