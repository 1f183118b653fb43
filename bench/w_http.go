package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"srdf/internal/rdfh"
	"srdf/internal/server"
)

// serve.lookup: every request is a text the store has not seen for at
// least a whole permutation of the order keys (far more than the plan
// cache holds), so each one parses and plans.
func setupLookup(cfg config, dir string) (instance, error) {
	d, snap, err := buildSnapshot(sfServe, cfg.seed, dir)
	if err != nil {
		return nil, err
	}
	h, err := openHTTP(d, snap, 0)
	if err != nil {
		return nil, err
	}
	h.gen = lookupSequence(d, cfg.seed, runtime.GOMAXPROCS(0))
	return h, h.warm(300)
}

// lookupSequence walks a seeded permutation of (order key, template)
// pairs; client c of n takes every n-th pair.
func lookupSequence(d *rdfh.Data, seed int64, clients int) func(c, i int) request {
	perm := rand.New(rand.NewSource(seed)).Perm(2 * len(d.Orders))
	byOrder := lineitemsByOrder(d)
	return func(c, i int) request {
		p := perm[(i*clients+c)%len(perm)]
		key := p/2 + 1
		if p%2 == 0 {
			return request{class: "order_by_subject", text: lookupOrder(key), mime: server.MimeJSON,
				want: expectLookupOrder(&d.Orders[key-1]), fixed: -1}
		}
		return request{class: "lineitem_star", text: lookupLineitems(key), mime: server.MimeJSON,
			want: expectLookupLineitems(d.Lineitems[byOrder[key]:byOrder[key+1]]), fixed: -1}
	}
}

// serve.report: 16 fixed texts in three formats, all plan-cache hits
// after the first pass.
func setupReport(cfg config, dir string) (instance, error) {
	d, snap, err := buildSnapshot(sfServe, cfg.seed, dir)
	if err != nil {
		return nil, err
	}
	h, err := openHTTP(d, snap, 0)
	if err != nil {
		return nil, err
	}
	h.gen = reportSequence(d, cfg.seed, runtime.GOMAXPROCS(0))
	h.roundLen = reportWindows * len(mimes)
	return h, h.warm(h.roundLen)
}

// reportSequence cycles the 48 (window, format) pairs — pair j is window
// j mod 16 in format j mod 3 — each client from its own seeded start.
func reportSequence(d *rdfh.Data, seed int64, clients int) func(c, i int) request {
	texts := make([]string, reportWindows)
	wants := make([]expect, reportWindows)
	for w := range texts {
		texts[w], wants[w] = reportQuery(w), expectReport(d, w)
	}
	pairs := reportWindows * len(mimes)
	rng := rand.New(rand.NewSource(seed))
	starts := make([]int, clients)
	for c := range starts {
		starts[c] = rng.Intn(pairs)
	}
	return func(c, i int) request {
		j := (starts[c] + i) % pairs
		mime := mimes[j%len(mimes)]
		return request{class: mimeShort(mime), text: texts[j%reportWindows], mime: mime, want: wants[j%reportWindows], fixed: j}
	}
}

// scanRound is the fixed round of scan.mem and scan.ooc.
func scanRound(d *rdfh.Data) []request {
	round := []request{{class: "Q1", text: rdfh.Q1(), want: expectQ1(d)}}
	for _, y := range q6Years {
		round = append(round, request{class: "Q6", text: q6Window(y), want: expectQ6Window(d.Lineitems, y)})
	}
	round = append(round,
		request{class: "Q3", text: rdfh.Q3(), want: expectQ3(d)},
		request{class: "Q5", text: rdfh.Q5(), want: expectQ5(d)})
	for i := range round {
		round[i].mime, round[i].fixed = server.MimeJSON, i
	}
	return round
}

func openScan(d *rdfh.Data, snap string, poolBytes int64) (*httpInstance, error) {
	h, err := openHTTP(d, snap, poolBytes)
	if err != nil {
		return nil, err
	}
	round := scanRound(d)
	h.gen = func(c, i int) request { return round[i%len(round)] }
	h.roundLen = len(round)
	return h, h.warm(len(round))
}

func setupScanMem(cfg config, dir string) (instance, error) {
	d, snap, err := buildSnapshot(sfServe, cfg.seed, dir)
	if err != nil {
		return nil, err
	}
	return openScan(d, snap, 0)
}

// setupScanOOC opens the snapshot twice: unbudgeted to learn what a warm
// round leaves resident, then with a quarter of that as the pool budget.
func setupScanOOC(cfg config, dir string) (instance, error) {
	d, snap, err := buildSnapshot(sfServe, cfg.seed, dir)
	if err != nil {
		return nil, err
	}
	h, err := openScan(d, snap, 0)
	if err != nil {
		return nil, err
	}
	resident := h.store.PoolStats().ResidentBytes
	if err := h.close(); err != nil {
		return nil, err
	}
	if resident <= 0 {
		return nil, fmt.Errorf("a warm round left no resident pool bytes to budget against")
	}
	h, err = openScan(d, snap, resident/4)
	if err == nil {
		h.note = fmt.Sprintf("an unbudgeted warm round leaves %d B resident; the pool budget is a quarter of it, %d B", resident, resident/4)
	}
	return h, err
}
