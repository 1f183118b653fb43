package main

import (
	"fmt"
	"math"
	"time"
)

// sample is one latency (ms) and when, in seconds since the measured
// phase began, the operation completed. A failed operation's latency is
// +Inf: it misses any limit.
type sample struct{ ms, at float64 }

// recorder collects what one run observed. Each client goroutine fills
// its own and the run merges them, so recording takes no lock.
type recorder struct {
	start time.Time
	// ops holds every operation attempted; classes holds samples by
	// query class (or pipeline stage), each of which weighs the same in
	// query_geomean_ms.
	ops     []sample
	classes map[string][]sample

	attempted int
	failed    int
	firstErr  error
	wallS     float64 // measured wall time
	// slices is how many time slices the medians are taken over (set by
	// the workload's run; 0 or 1: the whole run at once).
	slices int
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func newRecorder() *recorder { return &recorder{start: time.Now(), classes: make(map[string][]sample)} }

// op records one correct operation that just completed; its latency is
// also a sample of its class unless class is "".
func (r *recorder) op(class string, d time.Duration) { r.record(class, ms(d)) }

func (r *recorder) record(class string, ms float64) {
	r.attempted++
	s := sample{ms, time.Since(r.start).Seconds()}
	r.ops = append(r.ops, s)
	if class != "" {
		r.classes[class] = append(r.classes[class], s)
	}
}

// stage records a class sample that is part of an operation, not one of
// its own (ingest.rdfh's pipeline stages).
func (r *recorder) stage(class string, d time.Duration) {
	r.classes[class] = append(r.classes[class], sample{ms(d), time.Since(r.start).Seconds()})
}

// fail records an operation that failed, was refused or answered wrong,
// as an infinite latency: it weighs on every percentile as an answer that
// never came, so turning slow answers into quick errors cannot improve one.
func (r *recorder) fail(class string, err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.record(class, math.Inf(1))
}

func (r *recorder) merge(o *recorder) {
	r.ops = append(r.ops, o.ops...)
	for c, xs := range o.classes {
		r.classes[c] = append(r.classes[c], xs...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func latencies(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.ms
	}
	return out
}

func (r *recorder) p50() float64 { return median(latencies(r.ops)) }

// overSlices cuts the measured phase into equal time slices, applies f to
// the latencies completed in each, and returns the median over the
// slices: one disturbed second moves one slice, not the result. With one
// slice it is f over everything.
func overSlices(xs []sample, wallS float64, slices int, f func([]sample) float64) float64 {
	if slices <= 1 {
		return f(xs)
	}
	sliceS := wallS / float64(slices)
	buckets := make([][]sample, slices)
	for _, x := range xs {
		if i := int(x.at / sliceS); i < slices { // the last operations end just past the deadline
			buckets[i] = append(buckets[i], x)
		}
	}
	var vals []float64
	for _, b := range buckets {
		if len(b) > 1 {
			vals = append(vals, f(b))
		}
	}
	return median(vals)
}

func sliceP50(xs []sample) float64 { return median(latencies(xs)) }

// sliceRate is the rate of correct answers inside a slice: those after
// the slice's first completion, over the time from the first completion
// to the last.
func sliceRate(xs []sample) float64 {
	first, last := xs[0].at, xs[0].at
	for _, x := range xs {
		first, last = min(first, x.at), max(last, x.at)
	}
	return ratio(float64(correct(xs)-1), last-first)
}

// correct counts the samples of operations that were answered correctly.
func correct(xs []sample) int {
	n := 0
	for _, x := range xs {
		if !math.IsInf(x.ms, 1) {
			n++
		}
	}
	return n
}

// endToEnd derives the operation metrics (all but setup_s and
// peak_rss_mb, which the run itself knows): throughput and the medians
// as medians over time slices, the p99 over the whole run.
func (r *recorder) endToEnd() map[string]float64 {
	slices := r.slices
	var p50s []float64
	for _, xs := range r.classes {
		p50s = append(p50s, overSlices(xs, r.wallS, slices, sliceP50))
	}
	return map[string]float64{
		"throughput_qps":   r.throughput(),
		"latency_p50_ms":   overSlices(r.ops, r.wallS, slices, sliceP50),
		"latency_p99_ms":   quantile(sorted(latencies(r.ops)), 0.99),
		"query_geomean_ms": geomean(p50s),
	}
}

// throughput is correct operations per second: over the whole measured
// phase for fixed-work runs, the median slice rate for clocked ones.
func (r *recorder) throughput() float64 {
	if r.slices <= 1 {
		return ratio(float64(correct(r.ops)), r.wallS)
	}
	return overSlices(r.ops, r.wallS, r.slices, sliceRate)
}

// printSamples prints the sample count beside every percentile.
func (r *recorder) printSamples() {
	asc := sorted(latencies(r.ops))
	tail, p := pickTail(asc)
	fmt.Printf("operations: %d attempted, %d failed (each an infinite latency) in %.3f s; whole-run p50 %.4f ms, p99 (nearest rank) %.4f ms, max %.4f ms\n",
		len(asc), r.failed, r.wallS, quantile(asc, 0.5), quantile(asc, 0.99), quantile(asc, 1))
	if p == 1 {
		fmt.Printf("  fewer than ten samples lie beyond any percentile of %d samples: read the p99 as the maximum\n", len(asc))
	} else {
		fmt.Printf("  highest percentile with at least ten samples beyond it: p%g = %.4f ms\n", p*100, tail)
	}
	for _, c := range sortedKeys(r.classes) {
		fmt.Printf("  class %-22s n=%-7d whole-run p50 %.4f ms\n", c, len(r.classes[c]), median(latencies(r.classes[c])))
	}
}
