package exec

import (
	"testing"

	"srdf/internal/colstore"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/relational"
)

// benchScanRows sizes the scan benchmarks: 64 blocks of 1024 rows.
const benchScanRows = 64 * colstore.BlockRows

// benchScanTable builds a two-column CS table whose first column is
// run-heavy (RLE-compressible, 16 runs per block) and whose second is
// low-cardinality (dict-compressible). sealed=false keeps the flat
// uncompressed vectors.
func benchScanTable(sealed bool) (*relational.Table, Star) {
	pa, pb := dict.ResourceOID(900001), dict.ResourceOID(900002)
	t := &relational.Table{Name: "bench", Base: 1, Count: benchScanRows}
	mk := func(pred dict.OID, val func(i int) dict.OID) {
		c := colstore.NewColumn("bench", benchScanRows, nil)
		for i := 0; i < benchScanRows; i++ {
			c.Set(i, val(i))
		}
		if sealed {
			c.Seal()
		}
		t.Cols = append(t.Cols, &relational.Col{Prop: &cs.PropStat{Pred: pred}, Data: c})
	}
	mk(pa, func(i int) dict.OID { return dict.LiteralOID(uint64(1 + i/64)) })
	mk(pb, func(i int) dict.OID { return dict.LiteralOID(uint64(1 + i%23)) })
	star := Star{SubjVar: "s", Props: []StarProp{
		{Pred: pa, ObjVar: "a"},
		{Pred: pb, ObjVar: "b"},
	}}
	return t, star
}

// drainScan pulls a scan to exhaustion without materializing, counting
// rows — the pure streaming cost.
func drainScan(b *testing.B, tab *relational.Table, star Star) {
	ctx := &Ctx{}
	op := NewScanOp(tab, star, false, 0, -1)
	if err := op.Open(ctx); err != nil {
		b.Fatal(err)
	}
	defer op.Close()
	batch := NewBatch(op.Vars())
	rows := 0
	for {
		batch.Reset()
		if !op.Next(batch) {
			break
		}
		rows += batch.Len()
	}
	if rows != benchScanRows {
		b.Fatalf("rows = %d, want %d", rows, benchScanRows)
	}
}

// BenchmarkScan_Compressed streams a full scan over sealed (compressed)
// segments: block views decode into reused scratch, zero row copies.
func BenchmarkScan_Compressed(b *testing.B) {
	tab, star := benchScanTable(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainScan(b, tab, star)
	}
}

// BenchmarkScan_Plain streams the same scan over unsealed flat vectors —
// the uncompressed baseline (views are zero-copy slices of the vector).
func BenchmarkScan_Plain(b *testing.B) {
	tab, star := benchScanTable(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainScan(b, tab, star)
	}
}

// BenchmarkScan_SelectivePredicate contrasts the two ways to apply a
// low-selectivity equality predicate (64 of 65536 rows, one RLE run):
//
//   - selvec: the predicate runs in the scan's compressed-segment
//     kernels; only surviving rows are ever gathered.
//   - plain: the pre-selection-vector shape — materialize every row with
//     bulk copies, then filter the copy.
//
// B/op is the headline number: selvec moves only the matches.
func BenchmarkScan_SelectivePredicate(b *testing.B) {
	match := dict.LiteralOID(500) // one 64-row run of column a
	wantRows := 64

	b.Run("selvec", func(b *testing.B) {
		tab, star := benchScanTable(true)
		star.Props[0].ObjVar = ""
		star.Props[0].ObjConst = match
		ctx := &Ctx{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := Drain(ctx, NewScanOp(tab, star, true, 0, -1))
			if out.Len() != wantRows {
				b.Fatalf("rows = %d, want %d", out.Len(), wantRows)
			}
		}
	})
	b.Run("plain", func(b *testing.B) {
		tab, star := benchScanTable(false)
		ctx := &Ctx{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			all := Drain(ctx, NewScanOp(tab, star, false, 0, -1))
			var keep []int32
			for r, v := range all.Cols[all.ColIdx("a")] {
				if v == match {
					keep = append(keep, int32(r))
				}
			}
			out := all.Select(keep)
			if out.Len() != wantRows {
				b.Fatalf("rows = %d, want %d", out.Len(), wantRows)
			}
		}
	})
}
