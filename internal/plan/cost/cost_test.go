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

func TestFKVsHashPreference(t *testing.T) {
	// A selective outer side against a big inner: the FK join reads at
	// most one inner row per outer key, the hash join builds or probes
	// the whole inner. The FK join must win.
	out := 2000.0
	fk := FKJoin(2000, Scan(40000, 2), 2, out)
	hash := HashJoin(2000, 40000, out)
	if fk >= hash {
		t.Fatalf("fk %v should beat hash %v on a selective FK join", fk, hash)
	}
	// Reading is capped by the zone-pruned scan: with few inner rows
	// left after pruning, more outer keys cost only their resolution.
	if FKJoin(1e6, 1000, 2, out) >= 1000+1e6*(HashProbe+MergeRow)+out*OutRow+1 {
		t.Fatal("fk reads must be capped by the star scan")
	}
	// With a tiny build side and a big outer side, hash wins.
	fk = FKJoin(40000, Scan(40000, 2), 2, out)
	hash = HashJoin(100, 2000, out)
	if hash >= fk {
		t.Fatalf("hash %v should beat fk %v with a tiny build", hash, fk)
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
