package harness

// The wire leg serves each differential query through the SPARQL
// endpoint in every result format and decodes the bodies with readers
// that share no code with the serializers — encoding/json, encoding/csv,
// and the N-Triples reader for TSV cells — so a serializer that drops,
// mangles or re-types a term fails against the oracle like an engine bug.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"

	"srdf"
	"srdf/internal/core"
	"srdf/internal/dict"
	"srdf/internal/exec"
	"srdf/internal/nt"
	"srdf/internal/server"
)

// wireHandler is the SPARQL endpoint over st.
func wireHandler(st *core.Store) http.Handler {
	return server.New(srdf.NewFromCore(st), server.Config{}).Handler()
}

// checkWire serves text through h in JSON, CSV and TSV and checks each
// decoded body against the oracle's answer. JSON and TSV carry whole
// terms, so their rows are typed exactly as the oracle types its own and
// checked in full (checkAnswer). CSV keeps only lexical forms, so both
// sides are reduced to what CSV can say (csvValue) and checked as a
// multiset: the typed legs already check the order.
func checkWire(h http.Handler, text string, want *Answer) error {
	if len(want.Vars) == 0 {
		return nil // CSV and TSV cannot tell zero-column rows apart
	}
	for _, mime := range []string{server.MimeJSON, server.MimeCSV, server.MimeTSV} {
		req := httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(text), nil)
		req.Header.Set("Accept", mime)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s\nquery: %s", mime, w.Code, w.Body, text)
		}
		var (
			res *exec.Result
			err error
		)
		switch mime {
		case server.MimeJSON:
			res, err = decodeJSON(w.Body)
		case server.MimeCSV:
			res, err = decodeCSV(w.Body)
		default:
			res, err = decodeTSV(w.Body)
		}
		if err != nil {
			return fmt.Errorf("%s: undecodable body: %w\nquery: %s", mime, err, text)
		}
		exp := want
		if mime == server.MimeCSV {
			exp = csvAnswer(want)
		}
		if err := checkAnswer(exp, res); err != nil {
			return fmt.Errorf("%s: wire and oracle disagree: %w\nquery: %s", mime, err, text)
		}
	}
	return nil
}

func decodeJSON(r io.Reader) (*exec.Result, error) {
	type cell struct {
		Type     string `json:"type"`
		Value    string `json:"value"`
		Lang     string `json:"xml:lang"`
		Datatype string `json:"datatype"`
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]cell `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, err
	}
	res := &exec.Result{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make([]dict.Value, len(res.Vars))
		for i, v := range res.Vars {
			c, ok := b[v]
			if !ok {
				continue // unbound
			}
			var t dict.Term
			switch c.Type {
			case "uri":
				t = dict.IRI(c.Value)
			case "bnode":
				t = dict.Blank(c.Value)
			case "literal":
				t = dict.Term{Kind: dict.KindLiteral, Value: c.Value, Datatype: c.Datatype, Lang: c.Lang}
			default:
				return nil, fmt.Errorf("term type %q", c.Type)
			}
			row[i] = termValue(t)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func decodeTSV(r io.Reader) (*exec.Result, error) {
	body, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	res := &exec.Result{}
	for _, v := range strings.Split(lines[0], "\t") {
		name, ok := strings.CutPrefix(v, "?")
		if !ok {
			return nil, fmt.Errorf("header cell %q", v)
		}
		res.Vars = append(res.Vars, name)
	}
	// each bound cell is an N-Triples object term: read them all as the
	// objects of one document, a line per cell
	var doc strings.Builder
	var bound []*dict.Value
	for _, line := range lines[1:] {
		cells := strings.Split(line, "\t")
		if len(cells) != len(res.Vars) {
			return nil, fmt.Errorf("%d cells in %q, want %d", len(cells), line, len(res.Vars))
		}
		row := make([]dict.Value, len(cells))
		for i, c := range cells {
			if c != "" { // empty: unbound
				doc.WriteString("<s:> <p:> " + c + " .\n")
				bound = append(bound, &row[i])
			}
		}
		res.Rows = append(res.Rows, row)
	}
	ts, err := nt.NewReader(strings.NewReader(doc.String())).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(ts) != len(bound) {
		return nil, fmt.Errorf("%d terms read from %d cells", len(ts), len(bound))
	}
	for i, t := range ts {
		*bound[i] = termValue(t.O)
	}
	return res, nil
}

func decodeCSV(r io.Reader) (*exec.Result, error) {
	recs, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no header record")
	}
	res := &exec.Result{Vars: recs[0]}
	for _, rec := range recs[1:] {
		row := make([]dict.Value, len(rec))
		for i, c := range rec {
			row[i] = csvValue(c)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// csvValue is what a CSV cell can say about a value: nothing for an empty
// cell, a number when the text is one, its text otherwise.
func csvValue(s string) dict.Value {
	if s == "" {
		return dict.Value{}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return dict.Value{Kind: dict.VFloat, Float: f}
	}
	return dict.Value{Kind: dict.VString, Str: s}
}

// csvAnswer reduces the oracle's answer to what CSV can carry, and drops
// its ORDER BY: order is not comparable between the reduced values.
func csvAnswer(want *Answer) *Answer {
	q := *want.Q
	q.OrderBy = nil
	a := &Answer{Q: &q, Vars: want.Vars, Rows: make([][]dict.Value, len(want.Rows))}
	for r, row := range want.Rows {
		a.Rows[r] = make([]dict.Value, len(row))
		for i, v := range row {
			a.Rows[r][i] = csvValue(v.Lexical())
		}
	}
	return a
}
