package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"srdf/internal/dict"
	"srdf/internal/rdfh"
	"srdf/internal/server"
)

// The oracle computes every expected answer from the generator's rows
// (rdfh.Data and the rdfh.Ref* evaluators), never from the store, and
// parses HTTP bodies back with the standard library, never with the
// server's serializers.

// expect is the answer a request must return. Exact answers are compared
// as a multiset: row count plus an order-insensitive checksum of the
// cells' lexical values. Aggregate answers (approx != nil) are compared
// row by row in ORDER BY order, numeric cells within relTol, and a cell
// expected as "" is not compared.
type expect struct {
	n      int
	sum    uint64
	approx [][]string
}

const relTol = 1e-6

func rowHash(cells []string) uint64 {
	h := fnv.New64a()
	for _, c := range cells {
		h.Write([]byte(c))
		h.Write([]byte{0x1f})
	}
	return h.Sum64()
}

// exact builds the multiset expectation of rows.
func exact(rows [][]string) expect {
	e := expect{n: len(rows)}
	for _, r := range rows {
		e.sum += rowHash(r)
	}
	return e
}

// check compares parsed result rows with the expectation.
func (e expect) check(rows [][]string) error {
	if e.approx == nil {
		got := exact(rows)
		if got.n != e.n || got.sum != e.sum {
			return fmt.Errorf("got %d rows (checksum %x), want %d (%x)", got.n, got.sum, e.n, e.sum)
		}
		return nil
	}
	if len(rows) != len(e.approx) {
		return fmt.Errorf("got %d rows, want %d", len(rows), len(e.approx))
	}
	for i, want := range e.approx {
		if len(rows[i]) != len(want) {
			return fmt.Errorf("row %d: got %d cells, want %d", i, len(rows[i]), len(want))
		}
		for j, w := range want {
			if w != "" && !cellEqual(rows[i][j], w) {
				return fmt.Errorf("row %d col %d: got %q, want %q", i, j, rows[i][j], w)
			}
		}
	}
	return nil
}

func cellEqual(got, want string) bool {
	if got == want {
		return true
	}
	g, gerr := strconv.ParseFloat(got, 64)
	w, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return false
	}
	return math.Abs(g-w) <= relTol*math.Max(math.Abs(g), math.Abs(w))
}

// parseBody parses a SPARQL result document of the given media type back
// into rows of lexical cell values in head order (unbound cells "").
func parseBody(mime string, body []byte) ([][]string, error) {
	switch mime {
	case server.MimeJSON:
		var doc struct {
			Head    struct{ Vars []string }
			Results struct {
				Bindings []map[string]struct{ Value string }
			}
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return nil, err
		}
		rows := make([][]string, len(doc.Results.Bindings))
		for i, b := range doc.Results.Bindings {
			row := make([]string, len(doc.Head.Vars))
			for j, v := range doc.Head.Vars {
				row[j] = b[v].Value
			}
			rows[i] = row
		}
		return rows, nil
	case server.MimeCSV:
		recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("csv: no header")
		}
		return recs[1:], nil
	case server.MimeTSV:
		lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
		if len(lines) == 0 || !strings.HasPrefix(lines[0], "?") {
			return nil, fmt.Errorf("tsv: no header")
		}
		rows := make([][]string, 0, len(lines)-1)
		for _, ln := range lines[1:] {
			cells := strings.Split(ln, "\t")
			for i, c := range cells {
				cells[i] = tsvValue(c)
			}
			rows = append(rows, cells)
		}
		return rows, nil
	}
	return nil, fmt.Errorf("unknown media type %q", mime)
}

// tsvValue strips the N-Triples syntax off one TSV cell: <iri> and
// "lexical"^^<datatype> / "lexical"@lang give the IRI and the lexical
// form (RDF-H values need no unescaping).
func tsvValue(c string) string {
	switch {
	case strings.HasPrefix(c, "<") && strings.HasSuffix(c, ">"):
		return c[1 : len(c)-1]
	case strings.HasPrefix(c, `"`):
		if end := strings.LastIndexByte(c, '"'); end > 0 {
			return c[1:end]
		}
	}
	return c
}

const prologue = "PREFIX rdfh: <" + rdfh.NS + ">\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// --- RDF-H Q1/Q3/Q5/Q6 -------------------------------------------------

func expectQ1(d *rdfh.Data) expect {
	var rows [][]string
	for _, r := range rdfh.RefQ1(d) {
		// ?rf ?ls ?sum_qty ?sum_base ?sum_disc ?sum_charge ?avg_qty ?avg_price ?avg_disc ?n
		rows = append(rows, []string{r.ReturnFlag, r.LineStatus, strconv.FormatInt(r.SumQty, 10),
			ftoa(r.SumBase), ftoa(r.SumDisc), "", ftoa(float64(r.SumQty) / float64(r.Count)),
			ftoa(r.SumBase / float64(r.Count)), "", strconv.Itoa(r.Count)})
	}
	return expect{approx: rows}
}

func expectQ3(d *rdfh.Data) expect {
	rows := [][]string{}
	for _, r := range rdfh.RefQ3(d) {
		// ?o ?revenue ?od ?sp
		rows = append(rows, []string{rdfh.OrderIRI(r.OrderKey), ftoa(r.Revenue), dict.FormatDate(r.OrderDate), "0"})
	}
	return expect{approx: rows}
}

func expectQ5(d *rdfh.Data) expect {
	rows := [][]string{}
	for _, r := range rdfh.RefQ5(d) {
		rows = append(rows, []string{r.Nation, ftoa(r.Revenue)})
	}
	return expect{approx: rows}
}

// q6Window is Q6 over one ship-date year. rdfh.Q6 is the 1994 window.
func q6Window(year int) string {
	return fmt.Sprintf(prologue+`SELECT (SUM(?ep * ?disc) AS ?revenue)
WHERE {
  ?li rdfh:lineitem_shipdate ?sd .
  ?li rdfh:lineitem_extendedprice ?ep .
  ?li rdfh:lineitem_discount ?disc .
  ?li rdfh:lineitem_quantity ?q .
  FILTER (?sd >= "%d-01-01"^^xsd:date && ?sd < "%d-01-01"^^xsd:date)
  FILTER (?disc >= 0.05 && ?disc <= 0.07 && ?q < 24)
}`, year, year+1)
}

// refQ6Window recomputes a Q6 window from lineitem rows (rdfh.RefQ6 is
// fixed to 1994; the unit test pins the two to each other).
func refQ6Window(lis []rdfh.Lineitem, year int) float64 {
	lo, _ := dict.ParseDate(fmt.Sprintf("%d-01-01", year))
	hi, _ := dict.ParseDate(fmt.Sprintf("%d-01-01", year+1))
	var rev float64
	for i := range lis {
		l := &lis[i]
		if l.ShipDate >= lo && l.ShipDate < hi && l.Discount >= 0.05 && l.Discount <= 0.07 && l.Quantity < 24 {
			rev += l.ExtendedPrice * l.Discount
		}
	}
	return rev
}

func expectQ6Window(lis []rdfh.Lineitem, year int) expect {
	return expect{approx: [][]string{{ftoa(refQ6Window(lis, year))}}}
}

// q6Years are the four windows of the scan round and the update reads.
var q6Years = []int{1993, 1994, 1995, 1996}

// --- lookups and reports -----------------------------------------------

// lookupOrder asks for one order's three properties by subject IRI.
func lookupOrder(key int) string {
	o := "<" + rdfh.OrderIRI(key) + ">"
	return prologue + "SELECT ?st ?tp ?od WHERE { " + o + " rdfh:order_status ?st . " +
		o + " rdfh:order_totalprice ?tp . " + o + " rdfh:order_orderdate ?od }"
}

func expectLookupOrder(o *rdfh.Order) expect {
	return exact([][]string{{o.Status, dict.FloatLit(o.TotalPrice).Value, dict.FormatDate(o.OrderDate)}})
}

// lookupLineitems asks for the lineitem star of one order.
func lookupLineitems(key int) string {
	return prologue + "SELECT ?li ?q ?ep WHERE { ?li rdfh:lineitem_order <" + rdfh.OrderIRI(key) +
		"> . ?li rdfh:lineitem_quantity ?q . ?li rdfh:lineitem_extendedprice ?ep }"
}

func expectLookupLineitems(lis []rdfh.Lineitem) expect {
	rows := make([][]string, len(lis))
	for i := range lis {
		l := &lis[i]
		rows[i] = []string{rdfh.LineitemIRI(l.OrderKey, l.LineNumber), strconv.Itoa(l.Quantity),
			dict.FloatLit(l.ExtendedPrice).Value}
	}
	return exact(rows)
}

// lineitemsByOrder indexes d.Lineitems (emitted order by order) by
// order key: the lineitems of order k are lis[idx[k]:idx[k+1]].
func lineitemsByOrder(d *rdfh.Data) []int {
	idx := make([]int, len(d.Orders)+2)
	li := 0
	for k := 1; k <= len(d.Orders); k++ {
		idx[k] = li
		for li < len(d.Lineitems) && d.Lineitems[li].OrderKey == k {
			li++
		}
	}
	idx[len(d.Orders)+1] = li
	return idx
}

// reportWindows is the number of equal-width order-date windows.
const reportWindows = 16

// The generator draws order dates uniformly from [orderDateLo,
// orderDateHi).
const (
	orderDateLo = 8036 // 1992-01-01
	orderDateHi = 8036 + 2406 - 121
)

func reportBounds(w int) (lo, hi int64) {
	span := orderDateHi - orderDateLo
	return int64(orderDateLo + w*span/reportWindows), int64(orderDateLo + (w+1)*span/reportWindows)
}

// reportQuery lists the orders of one order-date window.
func reportQuery(w int) string {
	lo, hi := reportBounds(w)
	return fmt.Sprintf(prologue+`SELECT ?o ?od ?tp ?st WHERE {
  ?o rdfh:order_orderdate ?od .
  ?o rdfh:order_totalprice ?tp .
  ?o rdfh:order_status ?st .
  FILTER (?od >= "%s"^^xsd:date && ?od < "%s"^^xsd:date)
}`, dict.FormatDate(lo), dict.FormatDate(hi))
}

func expectReport(d *rdfh.Data, w int) expect {
	lo, hi := reportBounds(w)
	var rows [][]string
	for i := range d.Orders {
		o := &d.Orders[i]
		if o.OrderDate >= lo && o.OrderDate < hi {
			rows = append(rows, []string{rdfh.OrderIRI(o.Key), dict.FormatDate(o.OrderDate),
				dict.FloatLit(o.TotalPrice).Value, o.Status})
		}
	}
	return exact(rows)
}

// countLineitems counts the lineitem subjects, the read that must see a
// whole update batch.
const countLineitems = prologue + "SELECT (COUNT(*) AS ?n) WHERE { ?li rdfh:lineitem_order ?o . ?li rdfh:lineitem_linenumber ?ln }"

func expectCount(n int) expect { return expect{approx: [][]string{{strconv.Itoa(n)}}} }
