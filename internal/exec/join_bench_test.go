package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"srdf/internal/dict"
)

// BenchmarkStream_HashJoin streams 100 000 probe rows through a hash
// join built on 20 000 rows, in Q5's shapes: keys=1 joins on the
// build's unique key, keys=2 also on a second, low-cardinality key (the
// nation of Q5's [?o ?s]). A fifth of the probe keys find no build row.
func BenchmarkStream_HashJoin(b *testing.B) {
	const nBuild, nProbe = 20000, 100000
	rng := rand.New(rand.NewSource(1))
	for _, nk := range []int{1, 2} {
		bv, pv := []string{"k0", "bv"}, []string{"pv", "k0"}
		if nk == 2 {
			bv, pv = append(bv, "k1"), append(pv, "k1")
		}
		build, probe := NewRel(bv...), NewRel(pv...)
		for i := 0; i < nBuild; i++ {
			k := uint64(1 + i)
			row := []dict.OID{dict.ResourceOID(k), dict.LiteralOID(k)}
			if nk == 2 {
				row = append(row, dict.ResourceOID(k%25))
			}
			build.AppendRow(row...)
		}
		for i := 0; i < nProbe; i++ {
			k := uint64(1 + rng.Intn(nBuild*5/4))
			row := []dict.OID{dict.LiteralOID(uint64(i)), dict.ResourceOID(k)}
			if nk == 2 {
				row = append(row, dict.ResourceOID(k%25))
			}
			probe.AppendRow(row...)
		}
		b.Run(fmt.Sprintf("keys=%d", nk), func(b *testing.B) {
			b.ReportAllocs()
			ctx := &Ctx{}
			for i := 0; i < b.N; i++ {
				op := NewHashJoinOp(NewRelSource(probe), NewRelSource(build), false)
				if err := op.Open(ctx); err != nil {
					b.Fatal(err)
				}
				out, rows := NewBatch(op.Vars()), 0
				for out.Reset(); op.Next(out); out.Reset() {
					rows += out.Len()
				}
				op.Close()
				if rows == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}
