package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"srdf"
	"srdf/internal/cluster"
	"srdf/internal/colstore"
	"srdf/internal/core"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/rdfh"
	"srdf/internal/relational"
	"srdf/internal/triples"
)

// ingestInstance holds RDF-H as N-Triples text; one operation is the
// whole pipeline on a fresh store plus the restart path: New →
// LoadNTriples → Organize → Save → Close → Open → first Q1 answer.
type ingestInstance struct {
	data    *rdfh.Data
	text    []byte
	triples int
	path    string
	wantQ1  expect
	fs      *countingFS

	// one entry per repetition, in seconds / bytes
	loadS, organizeS, saveS, openS, firstS, snapBytes []float64
}

func setupIngest(cfg config, dir string) (instance, error) {
	d := rdfh.Generate(sfIngest, cfg.seed)
	var buf bytes.Buffer
	n, err := d.WriteNT(&buf)
	if err != nil {
		return nil, err
	}
	return &ingestInstance{data: d, text: buf.Bytes(), triples: n, path: filepath.Join(dir, "ingest.srdf"),
		wantQ1: expectQ1(d), fs: newCountingFS()}, nil
}

func (g *ingestInstance) close() error  { return nil }
func (g *ingestInstance) verify() error { return nil }

func (g *ingestInstance) options() core.Options {
	o := core.DefaultOptions() // what srdf.Defaults() maps to
	o.FS = g.fs
	return o
}

// run makes a fixed number of repetitions, ingestRepsPerSecond for each
// second asked for, so every run does the same work and its counts
// repeat exactly.
func (g *ingestInstance) run(seconds float64, clients int, tr *tracer, rec *recorder) error {
	start := time.Now()
	for n := fixedCount(seconds, ingestRepsPerSecond); n > 0; n-- {
		if err := g.rep(tr, rec); err != nil {
			return err
		}
	}
	rec.wallS = time.Since(start).Seconds()
	return nil
}

// fixedCount is the operation count of a fixed-work workload: rate per
// second asked for, at least one.
func fixedCount(seconds, rate float64) int {
	return max(1, int(math.Round(seconds*rate)))
}

func (g *ingestInstance) rep(tr *tracer, rec *recorder) error {
	op := tr.beginOp("op.rep")
	defer tr.end(op, nil)
	t0 := time.Now()
	s := srdf.NewFromCore(core.NewStore(g.options()))
	load, err := timed(tr, op, "core.LoadNTriples", func() error {
		n, _, err := s.LoadNTriples(bytes.NewReader(g.text), false)
		if err == nil && n != g.triples {
			err = fmt.Errorf("loaded %d triples, want %d", n, g.triples)
		}
		return err
	})
	if err != nil {
		return err
	}
	organize, err := timed(tr, op, "core.Organize", func() error { _, err := s.Organize(); return err })
	if err != nil {
		return err
	}
	save, err := timed(tr, op, "storage.Save", func() error { return s.Save(g.path) })
	if err != nil {
		return err
	}
	if _, err := timed(tr, op, "core.Close", s.Close); err != nil {
		return err
	}
	var reopened *srdf.Store
	open, err := timed(tr, op, "storage.Open", func() error {
		inner, err := core.OpenStore(g.path, g.options())
		reopened = srdf.NewFromCore(inner)
		return err
	})
	if err != nil {
		return err
	}
	var rows [][]string
	first, err := timed(tr, op, "exec.first_answer", func() error {
		rows, err = drain(reopened, rdfh.Q1())
		return err
	})
	if err != nil {
		return err
	}
	total := time.Since(t0)
	if err := reopened.Close(); err != nil {
		return err
	}
	st, err := os.Stat(g.path)
	if err != nil {
		return err
	}

	if cerr := g.wantQ1.check(rows); cerr != nil {
		rec.fail("open_first_answer", fmt.Errorf("Q1 on the reopened store: %w", cerr))
		return nil
	}
	rec.op("", total)
	rec.stage("load", load)
	rec.stage("organize", organize)
	rec.stage("save", save)
	rec.stage("open_first_answer", open+first)
	g.loadS = append(g.loadS, load.Seconds())
	g.organizeS = append(g.organizeS, organize.Seconds())
	g.saveS = append(g.saveS, save.Seconds())
	g.openS = append(g.openS, open.Seconds())
	g.firstS = append(g.firstS, first.Seconds())
	g.snapBytes = append(g.snapBytes, float64(st.Size()))
	return nil
}

func (g *ingestInstance) layers(tr *tracer, untraced, traced *recorder) (layerReport, error) {
	rep := layerReport{metrics: make(map[string]float64)}
	m := rep.metrics
	reps := float64(len(g.loadS))
	fsc := g.fs.counters() // read before the probes; they do not touch the FS

	// parse only: the reader loop over the same bytes LoadNTriples gets
	op := tr.beginOp("probe.parse")
	parse, err := timed(tr, op, "nt.parse", func() error {
		rd := nt.NewReader(bytes.NewReader(g.text))
		for {
			if _, err := rd.Read(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	tr.end(op, nil)
	if err != nil {
		return rep, err
	}

	// Organize's four steps replayed on the benchmark's own dictionary
	// and triple table, as core.Organize calls them
	op = tr.beginOp("probe.organize")
	d, tb := dict.New(), triples.NewTable(0)
	if _, err := timed(tr, op, "dict_triples.load", func() error {
		rd := nt.NewReader(bytes.NewReader(g.text))
		for {
			t, err := rd.Read()
			if err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			tb.Append(d.Intern(t.S), d.Intern(t.P), d.Intern(t.O))
		}
	}); err != nil {
		return rep, err
	}
	tb.Dedup()
	opts := g.options()
	var schema *cs.Schema
	var inf *cluster.Info
	discover, _ := timed(tr, op, "cs.Discover", func() error { schema = cs.Discover(tb, d, opts.CS); return nil })
	reorganize, err := timed(tr, op, "cluster.Reorganize", func() (err error) {
		inf, err = cluster.Reorganize(tb, d, schema, opts.Cluster)
		return err
	})
	if err != nil {
		return rep, err
	}
	catalog, _ := timed(tr, op, "relational.BuildCatalog", func() error {
		relational.BuildCatalog(tb, d, schema, inf, colstore.NewPool(0))
		return nil
	})
	buildAll, _ := timed(tr, op, "triples.BuildAll", func() error { triples.BuildAll(tb); return nil })
	tr.end(op, nil)

	load, organize := median(g.loadS), median(g.organizeS)
	m["ingest_triples_per_s"] = float64(g.triples) / (load + organize)
	m["open_first_answer_s"] = median(g.openS) + median(g.firstS)
	m["snapshot_bytes_per_triple"] = median(g.snapBytes) / float64(g.triples)
	m["nt.parse_mb_per_s"] = float64(len(g.text)) / 1e6 / parse.Seconds()
	m["dict_triples.intern_s"] = load - parse.Seconds()
	m["cs.discover_s"] = discover.Seconds()
	m["cluster.reorganize_s"] = reorganize.Seconds()
	m["relational.build_catalog_s"] = catalog.Seconds()
	m["triples.build_all_s"] = buildAll.Seconds()
	m["core.organize_s"] = organize
	m["storage.save_s"] = median(g.saveS)
	m["storage.open_s"] = median(g.openS)
	m["storage.snapshot_bytes"] = median(g.snapBytes)
	m["fs.writes"] = float64(fsc.writes) / reps
	m["fs.write_bytes"] = float64(fsc.writeBytes) / reps
	m["fs.fsyncs"] = float64(fsc.fsyncs) / reps
	steps := discover.Seconds() + reorganize.Seconds() + catalog.Seconds() + buildAll.Seconds()
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d triples, %d bytes of N-Triples, %d repetitions; fs.* are per repetition", g.triples, len(g.text), len(g.loadS)),
		fmt.Sprintf("the four replayed organize steps sum to %.3f s beside core.organize_s %.3f s (ratio %.2f)", steps, organize, steps/organize))
	return rep, nil
}
