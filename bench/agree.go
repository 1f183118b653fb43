package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAgree runs the full set twice — every workload untraced and traced,
// each run its own process so peak_rss_mb is that run's — and prints,
// per metric and workload, both values, their relative difference and
// whether it stays within the metric's bound. A difference beyond the
// bound between two runs of the same code means the metric cannot
// resolve a change of that size here: it is reported as unresolved, and
// the bound is not widened.
func runAgree(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	one := func(workload string, trace int) (output, error) {
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", cfg.outDir, "--catalog", cfg.catalogPath)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return output{}, fmt.Errorf("%s --trace %d: %w", workload, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var out output
		if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
			return output{}, fmt.Errorf("%s --trace %d: result line: %w", workload, trace, err)
		}
		if !out.Correct {
			return out, fmt.Errorf("%s --trace %d: %d of %d operations failed", workload, trace, out.Failed, out.Attempted)
		}
		return out, nil
	}

	var runs [2][2]map[string]output // [set][trace][workload]
	for set := range runs {
		for trace := range runs[set] {
			runs[set][trace] = make(map[string]output)
		}
		for _, w := range cfg.cat.Workloads {
			for trace := range runs[set] {
				fmt.Fprintf(os.Stderr, "set %d: %s --trace %d\n", set+1, w.Name, trace)
				out, err := one(w.Name, trace)
				if err != nil {
					return err
				}
				runs[set][trace][w.Name] = out
			}
		}
	}

	unresolved := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %6s  %s\n", "workload", "end-to-end metric", "set 1", "set 2", "rel diff", "bound", "verdict")
	for _, w := range cfg.cat.Workloads {
		for _, d := range cfg.cat.EndToEnd {
			a, b := runs[0][0][w.Name].Metrics[d.Name].Value, runs[1][0][w.Name].Metrics[d.Name].Value
			rel := (b - a) / a
			verdict := "agree"
			// an end-to-end metric is never 0; one that is has no relative
			// difference (NaN or Inf), which must not pass for agreement
			if !(math.Abs(rel) <= d.Bound) {
				verdict = "UNRESOLVED"
				unresolved++
			}
			fmt.Printf("%-14s %-20s %14.6g %14.6g %+9.4f %6.2f  %s\n", w.Name, d.Name, a, b, rel, d.Bound, verdict)
		}
	}
	fmt.Printf("\n%-14s %-34s %14s %14s  %s\n", "workload", "per-layer metric", "set 1", "set 2", "rel diff")
	for _, w := range cfg.cat.Workloads {
		for _, d := range cfg.cat.PerLayer {
			a, b := runs[0][1][w.Name].Metrics[d.Name].Value, runs[1][1][w.Name].Metrics[d.Name].Value
			if a == 0 && b == 0 {
				// not exercised by this workload (or a ratio that is 0,
				// as the plan-cache hit ratio of serve.lookup)
				continue
			}
			diff := "identical"
			if a == 0 {
				diff = "from 0"
			} else if a != b {
				diff = fmt.Sprintf("%+.4f", (b-a)/a)
			}
			fmt.Printf("%-14s %-34s %14.6g %14.6g  %s\n", w.Name, d.Name, a, b, diff)
		}
	}
	fmt.Println("\ntracing overhead is trace.overhead_frac above: traced minus untraced one-client p50, as a share of untraced")
	if unresolved > 0 {
		return fmt.Errorf("%d end-to-end metric x workload pairs differ between two runs of the same code by more than their bound", unresolved)
	}
	return nil
}
