// The DBLP-like example of the paper's Figure 2: from a raw triple soup
// the store recognizes an inproceedings table and a conference table, a
// foreign key between them, a multi-valued creator property, and leaves
// the irregular webpage noise in the triple store. The printed output is
// the content of Fig. 2 regenerated by the actual algorithm.
package main

import (
	"fmt"

	"srdf"
)

const data = `
@prefix ex: <http://dblp.example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:inproc1 a ex:inproceeding ; ex:creator ex:author3 , ex:author4 ;
           ex:title "AAA" ; ex:partOf ex:conf1 .
ex:inproc2 a ex:inproceeding ; ex:creator ex:author2 ;
           ex:title "BBB" ; ex:partOf ex:conf1 .
ex:inproc3 a ex:inproceeding ; ex:creator ex:author3 ;
           ex:title "CCC" ; ex:partOf ex:conf2 .

ex:conf1 a ex:Conference ; ex:title "conference1" ; ex:issued 2010 .
ex:conf2 a ex:Proceedings ; ex:title "conference2" ; ex:issued 2011 .

# the irregularities of Fig. 2: web pages hanging off the graph
ex:conf2 ex:seeAlso ex:webpage1 .
ex:webpage1 ex:url "index.php" .
`

func main() {
	opts := srdf.Defaults()
	opts.MinSupport = 3 // conferences survive via incoming partOf links
	store := srdf.New(opts)
	store.MustLoadTurtle(data)

	rep, err := store.Organize()
	if err != nil {
		panic(err)
	}
	fmt.Println("== discovery ==")
	fmt.Println(rep)

	fmt.Println("\n== recognized structure (Fig. 2) ==")
	fmt.Print(store.SQLSchema())

	fmt.Println("== table contents ==")
	cat := store.Internal().Catalog()
	d := store.Internal().Dict()
	for _, t := range cat.SortedTables() {
		fmt.Printf("-- %s\n%s\n", t.Name, cat.DumpCSV(t, d, 0))
	}

	fmt.Println("== irregular residue ==")
	irr := cat.IrregularIdx.Triples()
	for i := 0; i < irr.Len(); i++ {
		tr := irr.At(i)
		fmt.Printf("  %s %s %s .\n", d.String(tr.S), d.String(tr.P), d.String(tr.O))
	}

	fmt.Println("\n== querying across the FK ==")
	res, err := store.Query(`
PREFIX ex: <http://dblp.example.org/>
SELECT ?t ?ct WHERE {
  ?p ex:title ?t .
  ?p ex:partOf ?c .
  ?c ex:title ?ct .
}`)
	if err != nil {
		panic(err)
	}
	fmt.Print(res.String())

	fmt.Println("\n== schema summarization (keyword: creator) ==")
	fmt.Print(store.SchemaSummary([]string{"creator"}, 0))
}
