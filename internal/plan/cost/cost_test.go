package cost

import "testing"

func TestJoinCard(t *testing.T) {
	// Classic distinct-value model: FK join of 6000 children against
	// 1500 parents on a key with 1500 distincts keeps child cardinality.
	if got := JoinCard(6000, 1500, 1500, 1500); got != 6000 {
		t.Fatalf("FK join card = %v, want 6000", got)
	}
	// Degenerate zero distincts must not divide by zero.
	if got := JoinCard(10, 10, 0, 0); got != 100 {
		t.Fatalf("cross-ish card = %v, want 100", got)
	}
}

func TestSortMonotonic(t *testing.T) {
	if Sort(0) != 0 {
		t.Fatal("sorting nothing must be free")
	}
	prev := 0.0
	for _, n := range []float64{1, 2, 100, 10000} {
		c := Sort(n)
		if c <= prev {
			t.Fatalf("Sort(%v)=%v not increasing past %v", n, c, prev)
		}
		prev = c
	}
}

func TestMergeVsHashPreference(t *testing.T) {
	// A selective left against a big inner: merge pays the sort plus
	// the inner scan window, hash pays a full build or probe of the
	// inner. With the inner scan costed at its zone-pruned window,
	// merge must win.
	out := 2000.0
	merge := MergeJoin(2000, 40000, 1000, out, false)
	hash := HashJoin(2000, 40000, out)
	if merge >= hash {
		t.Fatalf("merge %v should beat hash %v on a windowed FK join", merge, hash)
	}
	// With the full inner scan charged and a tiny build side, hash wins.
	merge = MergeJoin(2000, 40000, 40000, out, false)
	hash = HashJoin(100, 2000, out)
	if hash >= merge {
		t.Fatalf("hash %v should beat merge %v with a tiny build", hash, merge)
	}
}

func TestScanCostGrows(t *testing.T) {
	if Scan(1000, 2) >= Scan(1500, 2) {
		t.Fatal("more rows must cost more")
	}
	if Scan(1000, 1) >= Scan(1000, 3) {
		t.Fatal("wider scans must cost more")
	}
}
