package triples

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"srdf/internal/dict"
)

// comparatorOrder is the sort the radix kernel replaced: a stable
// comparison sort of the row ids by the key columns.
func comparatorOrder(n int, keys ...[]dict.OID) []uint32 {
	idx := make([]uint32, n)
	for i := range idx {
		idx[i] = uint32(i)
	}
	sort.SliceStable(idx, func(x, y int) bool { return compareRows(keys, idx[x], idx[y]) < 0 })
	return idx
}

func TestSortRowsEqualsComparatorSort(t *testing.T) {
	const maxPayload = 1<<63 - 1
	// each generator draws one OID; together they cover resources only,
	// literals only, both populations, the Nil sentinel, the bare
	// literal flag, and payloads that need all 63 bits
	gens := map[string]func(*rand.Rand) dict.OID{
		"resources": func(rng *rand.Rand) dict.OID { return r(uint64(1 + rng.Intn(5000))) },
		"literals":  func(rng *rand.Rand) dict.OID { return l(uint64(1 + rng.Intn(5000))) },
		"mixed": func(rng *rand.Rand) dict.OID {
			if rng.Intn(2) == 0 {
				return r(uint64(1 + rng.Intn(300)))
			}
			return l(uint64(1 + rng.Intn(70000)))
		},
		"extremes": func(rng *rand.Rand) dict.OID {
			switch rng.Intn(6) {
			case 0:
				return dict.Nil
			case 1:
				return r(maxPayload)
			case 2:
				return l(maxPayload)
			case 3:
				return l(0)
			case 4:
				return r(uint64(1 + rng.Intn(3)))
			default:
				return l(rng.Uint64() >> 1)
			}
		},
		"constant": func(*rand.Rand) dict.OID { return r(7) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, radixMinRows - 1, radixMinRows, 3000} {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			cols := make([][]dict.OID, 3)
			for c := range cols {
				cols[c] = make([]dict.OID, n)
				for i := range cols[c] {
					cols[c][i] = gen(rng)
				}
			}
			for nk := 1; nk <= 3; nk++ {
				got := sortRows(n, cols[:nk]...)
				want := comparatorOrder(n, cols[:nk]...)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d keys=%d: radix order differs from the comparator sort", name, n, nk)
				}
			}
		}
	}
}

func sameRows(t *testing.T, what string, got, want *Projection) {
	t.Helper()
	if got.Order != want.Order {
		t.Fatalf("%s: order %v, want %v", what, got.Order, want.Order)
	}
	if !slices.Equal(got.A, want.A) || !slices.Equal(got.B, want.B) || !slices.Equal(got.C, want.C) {
		t.Fatalf("%s: %v rows differ (%d rows, want %d)", what, want.Order, got.Len(), want.Len())
	}
}

// setOf is the reference for an index set's rows: a fresh sort of the
// table's distinct triples in one order.
func setOf(tb *Table, p Perm) *Projection {
	pr := Build(tb, p)
	pr.dedup()
	return pr
}

// TestLazyOrdersEqualDirectBuild checks the derivation of every order
// from SPO against a direct sort of the table's distinct triples.
func TestLazyOrdersEqualDirectBuild(t *testing.T) {
	for _, n := range []int{0, 1, 40, 5000} {
		tb := randomTable(int64(n), n)
		frozen := tb.Clone()
		set := NewIndexSet(tb) // takes tb over
		if got := set.Materialized(); !slices.Equal(got, []Perm{SPO}) {
			t.Fatalf("n=%d: a new set materialized %v, want SPO only", n, got)
		}
		for _, p := range AllPerms {
			sameRows(t, "lazy", set.Get(p), setOf(frozen, p))
		}
		if got := set.Materialized(); len(got) != len(AllPerms) {
			t.Fatalf("n=%d: materialized %v after asking for all", n, got)
		}
		if set.Len() != set.Get(SPO).Len() || set.Triples().Len() != set.Len() {
			t.Fatalf("n=%d: Len %d, Triples %d, SPO %d rows", n, set.Len(), set.Triples().Len(), set.Get(SPO).Len())
		}
	}
}

// TestNewIndexSetAdoptsSPOSets checks what NewIndexSet costs: rows that
// already form a set in SPO order become the SPO projection as they are
// — same arrays, no sort counted — and any other table is sorted, its
// duplicates collapsed, and one SPO build counted.
func TestNewIndexSetAdoptsSPOSets(t *testing.T) {
	raw := randomTable(3, 2000) // unsorted, with duplicates
	want := setOf(raw.Clone(), SPO)
	builds0, _ := ProjectionCounts(SPO)
	sorted := NewIndexSet(raw)
	if b, _ := ProjectionCounts(SPO); b != builds0+1 {
		t.Fatalf("sorting an unsorted table counted %d SPO builds, want 1", b-builds0)
	}
	sameRows(t, "sorted", sorted.Get(SPO), want)
	if want.Len() == raw.Len() {
		t.Fatal("the input had no duplicates to collapse")
	}

	rows := &Table{S: want.A, P: want.B, O: want.C}
	adopted := NewIndexSet(rows)
	if b, _ := ProjectionCounts(SPO); b != builds0+1 {
		t.Fatalf("adopting an SPO set counted %d SPO builds, want none", b-builds0-1)
	}
	if spo := adopted.Get(SPO); &spo.A[0] != &rows.S[0] || &spo.C[0] != &rows.O[0] {
		t.Fatal("an SPO-ordered set was copied, not adopted")
	}
	// a duplicate in SPO order is not a set: it is sorted and collapsed
	dup := rows.Clone()
	dup.AppendTriple(dup.At(dup.Len() - 1))
	sameRows(t, "sorted duplicate", NewIndexSet(dup).Get(SPO), want)
	if b, _ := ProjectionCounts(SPO); b != builds0+2 {
		t.Fatalf("a trailing duplicate counted %d SPO builds, want 1", b-builds0-1)
	}
}

func TestGetConcurrentFirstUse(t *testing.T) {
	set := NewIndexSet(randomTable(11, 4000))
	var wg sync.WaitGroup
	got := make([][6]*Projection, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range AllPerms {
				p := AllPerms[(i+g)%len(AllPerms)]
				got[g][p] = set.Get(p)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d saw a different projection than goroutine 0: an order was sorted twice", g)
		}
	}
}

// mergeScript is one refresh worth of updates against a base table.
type mergeScript struct {
	name      string
	base      *Table
	add, del  []Triple
	preMerged []Perm // orders materialized before the merge
}

func mergeScripts() []mergeScript {
	var out []mergeScript
	pick := func(rng *rand.Rand, tb *Table, n int) []Triple {
		var ts []Triple
		for i := 0; i < n && tb.Len() > 0; i++ {
			ts = append(ts, tb.At(rng.Intn(tb.Len())))
		}
		return ts
	}
	fresh := func(rng *rand.Rand, n int) []Triple {
		ts := randomTable(rng.Int63(), n)
		var out []Triple
		for i := 0; i < ts.Len(); i++ {
			out = append(out, ts.At(i))
		}
		return out
	}
	all := func(tb *Table) []Triple {
		var ts []Triple
		for i := 0; i < tb.Len(); i++ {
			ts = append(ts, tb.At(i))
		}
		return ts
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomTable(seed, 50+rng.Intn(3000)) // duplicates included
		pre := []Perm{SPO}
		for _, p := range AllPerms[1:] {
			if rng.Intn(2) == 0 {
				pre = append(pre, p)
			}
		}
		add := fresh(rng, rng.Intn(400)) // may repeat base rows and each other
		del := pick(rng, base, rng.Intn(200))
		del = append(del, fresh(rng, 20)...)      // mostly absent
		add = append(add, pick(rng, base, 10)...) // delete-then-re-add candidates
		out = append(out, mergeScript{name: "random", base: base, add: add, del: append(del, add[len(add)/2:]...), preMerged: pre})
	}
	rng := rand.New(rand.NewSource(99))
	small, big := randomTable(5, 300), randomTable(6, 4000)
	out = append(out,
		mergeScript{name: "empty batch", base: small, preMerged: AllPerms[:]},
		mergeScript{name: "empty base", base: NewTable(0), add: fresh(rng, 500), preMerged: AllPerms[:]},
		mergeScript{name: "batch larger than base", base: small, add: all(big), del: pick(rng, small, 50), preMerged: AllPerms[:]},
		mergeScript{name: "all deleted", base: big, del: all(big), preMerged: AllPerms[:]},
		mergeScript{name: "all deleted and re-added", base: small, add: all(small), del: all(small), preMerged: AllPerms[:]},
		mergeScript{name: "delete of absent", base: small, del: fresh(rng, 300), preMerged: []Perm{SPO, OPS}},
	)
	return out
}

// TestMergeEqualsBuildAll replays add/delete scripts two ways: merged
// into an existing index set, and applied to the table (drop every copy
// of a deleted triple, then append) with all six orders rebuilt from
// scratch. The rows must be identical, and a set: the scripts' bases
// and batches repeat triples, and each must come out once.
func TestMergeEqualsBuildAll(t *testing.T) {
	for _, sc := range mergeScripts() {
		set := NewIndexSet(sc.base)
		for _, p := range sc.preMerged {
			set.Get(p)
		}
		add, del := NewTable(0), NewTable(0)
		dead := make(map[Triple]bool)
		for _, tr := range sc.add {
			add.AppendTriple(tr)
		}
		for _, tr := range sc.del {
			del.AppendTriple(tr)
			dead[tr] = true
		}
		final := NewTable(0)
		for i := 0; i < sc.base.Len(); i++ {
			if tr := sc.base.At(i); !dead[tr] {
				final.AppendTriple(tr)
			}
		}
		for _, tr := range sc.add {
			final.AppendTriple(tr)
		}

		merged := set.Merge(add, del)
		if got := merged.Materialized(); !slices.Equal(got, set.Materialized()) {
			t.Fatalf("%s: merge materialized %v, the previous epoch had %v", sc.name, got, set.Materialized())
		}
		want := BuildAll(final)
		for _, p := range AllPerms {
			sameRows(t, sc.name, merged.Get(p), want.Get(p))
		}
		// the previous epoch is untouched: its readers are still running
		for _, p := range AllPerms {
			sameRows(t, sc.name+" (previous epoch)", set.Get(p), setOf(sc.base, p))
		}
	}
}

// benchTable has the shape of an organized RDF-H store: clustered
// subjects, a few dozen predicates, resource and literal objects.
func benchTable(n int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(n)
	for i := 0; i < n; i++ {
		s := r(uint64(1 + rng.Intn(n/8+1)))
		p := r(uint64(n + rng.Intn(40)))
		o := l(uint64(1 + rng.Intn(n/4+1)))
		if rng.Intn(4) == 0 {
			o = r(uint64(1 + rng.Intn(n/8+1)))
		}
		t.Append(s, p, o)
	}
	return t
}

var sinkSet *IndexSet

func BenchmarkProjection_Build(b *testing.B) {
	tb := benchTable(200_000, 1)
	b.Run("SortSPO", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSet = NewIndexSet(tb)
		}
	})
	for _, p := range []Perm{PSO, POS} {
		b.Run("Derive"+p.String(), func(b *testing.B) {
			spo := Build(tb, SPO)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSet = &IndexSet{}
				sinkSet.perms[SPO].Store(spo)
				sinkSet.Get(p)
			}
		})
	}
	b.Run("AllSix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSet = BuildAll(tb)
		}
	})
}

func BenchmarkProjection_MergeBatch(b *testing.B) {
	base := benchTable(200_000, 1)
	add := benchTable(12_000, 2)
	del := NewTable(0)
	for i := 0; i < 600; i++ {
		del.AppendTriple(base.At(i * 300))
	}
	for _, perms := range [][]Perm{{SPO}, {SPO, PSO, POS}, AllPerms[:]} {
		b.Run(permNames(perms), func(b *testing.B) {
			set := NewIndexSet(base)
			for _, p := range perms {
				set.Get(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSet = set.Merge(add, del)
			}
		})
	}
}

func permNames(ps []Perm) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += "+"
		}
		s += p.String()
	}
	return s
}
