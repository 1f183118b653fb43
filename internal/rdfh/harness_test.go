package rdfh

import "testing"

func TestHarnessTableI(t *testing.T) {
	h, err := NewHarness(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := h.RunTableI()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 24 {
		t.Fatalf("measurements = %d, want 24", len(ms))
	}
	for _, m := range ms {
		if !m.Checked {
			t.Errorf("unvalidated cell: %s %s cold=%v rows=%d", m.Config.Name, m.Query, m.Cold, m.Rows)
		}
	}
	out := FormatTableI(ms, 0.002)
	t.Logf("\n%s", out)
}

// TestTableIColdPages pins the cold page-miss counts of Table I's
// Default-plan rows (the RDFscan rows ride along) to the values measured
// before the triple projections became lazy. A Default plan reads PSO
// and POS, which a published snapshot now sorts on first use; if such a
// late projection were read without being registered with the buffer
// pool, its pages would stop counting and these numbers would drop.
func TestTableIColdPages(t *testing.T) {
	h, err := NewHarness(0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]uint64{ // config -> cold pages of Q3, Q6
		"Default    ParseOrder  No ": {124, 98},
		"Default    Clustered   No ": {106, 15},
		"Default    Clustered   Yes": {106, 15},
		"RDFscan    ParseOrder  No ": {58, 48},
		"RDFscan    Clustered   No ": {41, 21},
		"RDFscan    Clustered   Yes": {12, 12},
	}
	for _, c := range TableIConfigs() {
		for i, q := range []string{"Q3", "Q6"} {
			ms, err := h.Run(c, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := ms[0].Pages; got != want[c.Name][i] {
				t.Errorf("%s %s: %d cold pages, want %d", c.Name, q, got, want[c.Name][i])
			}
		}
	}
}
