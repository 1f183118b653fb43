package main

import (
	"fmt"
	"path/filepath"

	"srdf"
	"srdf/internal/rdfh"
)

// queryOpts is what `srdf serve` runs every request under.
var queryOpts = srdf.QueryOptions{Mode: srdf.RDFScan, ZoneMaps: true}

// buildSnapshot generates RDF-H at sf from the seed, loads and organizes
// it, and saves it under dir — the state `srdf build` leaves for `srdf
// serve`. It returns the rows (the oracle's input) and the snapshot path.
func buildSnapshot(sf float64, seed int64, dir string) (*rdfh.Data, string, error) {
	d := rdfh.Generate(sf, seed)
	s := srdf.New(srdf.Defaults())
	var aerr error
	d.Emit(func(t srdf.Triple) {
		if err := s.Add(t); err != nil && aerr == nil {
			aerr = err
		}
	})
	if aerr != nil {
		return nil, "", fmt.Errorf("add: %w", aerr)
	}
	if _, err := s.Organize(); err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "rdfh.srdf")
	if err := s.Save(path); err != nil {
		return nil, "", err
	}
	return d, path, s.Close()
}

// drain runs q in-process and returns the rows as lexical cell values.
func drain(s *srdf.Store, q string) ([][]string, error) {
	res, err := s.QueryWith(q, queryOpts)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.Lexical()
		}
		rows[i] = row
	}
	return rows, nil
}
