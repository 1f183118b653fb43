package colstore

import (
	"math/rand"
	"sync"
	"testing"

	"srdf/internal/dict"
)

// buildSealed seals vals into a column registered against pool.
func buildSealed(t *testing.T, name string, vals []dict.OID, pool *BufferPool) *Column {
	t.Helper()
	c := NewColumn(name, len(vals), pool)
	for i, v := range vals {
		if v != dict.Nil {
			c.Set(i, v)
		}
	}
	c.Seal()
	return c
}

// restoreCopy marshals c and restores it lazily against pool.
func restoreCopy(t *testing.T, c *Column, pool *BufferPool) *Column {
	t.Helper()
	blob, metas, err := c.MarshalBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RestoreSealed(c.Name, c.NullCount(), metas, blob, pool)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestSerializeRoundtripAllShapes drives every encoding through
// marshal → restore and compares values, kernels, and metadata against
// the eagerly sealed original.
func TestSerializeRoundtripAllShapes(t *testing.T) {
	for name, gen := range blockShapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for _, n := range []int{1, 7, BlockRows, BlockRows + 1, 3*BlockRows - 5} {
				vals := gen(rng, n)
				orig := buildSealed(t, "t.c", vals, nil)
				rc := restoreCopy(t, orig, nil)

				if rc.Len() != orig.Len() || rc.NullCount() != orig.NullCount() {
					t.Fatalf("n=%d: len/null mismatch: %d/%d vs %d/%d",
						n, rc.Len(), rc.NullCount(), orig.Len(), orig.NullCount())
				}
				ov, rv := orig.Values(), rc.Values()
				for i := range ov {
					if ov[i] != rv[i] {
						t.Fatalf("n=%d row %d: %v != %v", n, i, rv[i], ov[i])
					}
				}
				for b := 0; b < orig.NumBlocks(); b++ {
					if rc.BlockEncoding(b) != orig.BlockEncoding(b) {
						t.Fatalf("n=%d block %d: encoding %v != %v", n, b, rc.BlockEncoding(b), orig.BlockEncoding(b))
					}
					lo, hi := orig.Zones().BlockRange(b)
					blen := hi - lo
					probe := vals[lo+rng.Intn(blen)]
					s1 := orig.SelectBlock(b, 0, blen, probe, probe, nil)
					s2 := rc.SelectBlock(b, 0, blen, probe, probe, nil)
					if len(s1) != len(s2) {
						t.Fatalf("n=%d block %d: eq kernel %d vs %d rows", n, b, len(s2), len(s1))
					}
					for i := range s1 {
						if s1[i] != s2[i] {
							t.Fatalf("n=%d block %d: eq kernel diverges at %d", n, b, i)
						}
					}
					s1 = orig.SelectBlock(b, 0, blen, dict.Nil, ^dict.OID(0), s1[:0])
					s2 = rc.SelectBlock(b, 0, blen, dict.Nil, ^dict.OID(0), s2[:0])
					if len(s1) != len(s2) {
						t.Fatalf("n=%d block %d: notnil kernel %d vs %d rows", n, b, len(s2), len(s1))
					}
				}
				if rz, oz := rc.Zones(), orig.Zones(); len(rz.Zones) != len(oz.Zones) {
					t.Fatalf("zone map size %d != %d", len(rz.Zones), len(oz.Zones))
				} else {
					for i := range oz.Zones {
						if rz.Zones[i] != oz.Zones[i] {
							t.Fatalf("zone %d: %+v != %+v", i, rz.Zones[i], oz.Zones[i])
						}
					}
				}
			}
		})
	}
}

// TestLazyDecodeAccounting asserts the restore→fault lifecycle against
// the pool: restore registers lazy blocks without bytes, the first touch
// of a block decodes it and accounts it, untouched blocks stay encoded.
func TestLazyDecodeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := blockShapes["runs"](rng, 4*BlockRows)
	orig := buildSealed(t, "t.c", vals, nil)

	pool := NewPool(0)
	rc := restoreCopy(t, orig, pool)
	st := pool.Stats()
	if st.SegmentsLazy != 4 || st.SegmentsDecoded != 0 {
		t.Fatalf("after restore: lazy=%d decoded=%d, want 4/0", st.SegmentsLazy, st.SegmentsDecoded)
	}
	if st.SegmentBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("after restore: %d segment bytes accounted before any touch", st.SegmentBytes)
	}

	// Touch one row: only that block decodes.
	if got, want := rc.Get(0), orig.Get(0); got != want {
		t.Fatalf("Get(0) = %v, want %v", got, want)
	}
	st = pool.Stats()
	if st.SegmentsLazy != 3 || st.SegmentsDecoded != 1 {
		t.Fatalf("after one touch: lazy=%d decoded=%d, want 3/1", st.SegmentsLazy, st.SegmentsDecoded)
	}
	if st.SegmentBytes <= 0 || st.LogicalBytes != 8*BlockRows {
		t.Fatalf("after one touch: segBytes=%d logBytes=%d", st.SegmentBytes, st.LogicalBytes)
	}

	// Full decode; Release must subtract exactly what was accounted.
	rc.Values()
	st = pool.Stats()
	if st.SegmentsLazy != 0 || st.SegmentsDecoded != 4 {
		t.Fatalf("after full decode: lazy=%d decoded=%d", st.SegmentsLazy, st.SegmentsDecoded)
	}
	rc.Release()
	st = pool.Stats()
	if st.SegmentBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("after release: segBytes=%d logBytes=%d, want 0/0", st.SegmentBytes, st.LogicalBytes)
	}
}

// TestFaultAfterReleaseDoesNotAccount: a block faulting in after its
// column was Released (an in-flight snapshot reader outliving a
// Compact) must decode correctly but leave the pool's resident bytes
// untouched — otherwise every compact-under-read cycle inflates stats.
func TestFaultAfterReleaseDoesNotAccount(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vals := blockShapes["runs"](rng, 3*BlockRows)
	orig := buildSealed(t, "t.c", vals, nil)
	pool := NewPool(0)
	rc := restoreCopy(t, orig, pool)

	rc.Get(0) // decode block 0: accounted
	if st := pool.Stats(); st.SegmentBytes <= 0 || st.SegmentsDecoded != 1 || st.SegmentsLazy != 2 {
		t.Fatalf("first fault accounting off: %+v", st)
	}
	rc.Release()
	if st := pool.Stats(); st.SegmentBytes != 0 || st.LogicalBytes != 0 || st.SegmentsLazy != 0 {
		t.Fatalf("release left bytes=%d/%d lazy=%d accounted", st.SegmentBytes, st.LogicalBytes, st.SegmentsLazy)
	}
	// late faults still read correctly but account nothing
	for i := BlockRows; i < 3*BlockRows; i += BlockRows {
		if got := rc.Get(i); got != vals[i] {
			t.Fatalf("row %d after release: %v != %v", i, got, vals[i])
		}
	}
	st := pool.Stats()
	if st.SegmentBytes != 0 || st.LogicalBytes != 0 {
		t.Fatalf("post-release faults accounted %d/%d bytes", st.SegmentBytes, st.LogicalBytes)
	}
	if st.SegmentsDecoded != 1 || st.SegmentsLazy != 0 {
		t.Fatalf("decode counters drifted: decoded=%d lazy=%d", st.SegmentsDecoded, st.SegmentsLazy)
	}
}

// TestConcurrentLazyFault races many readers over a freshly restored
// column: first-touch decodes must be exactly-once and race-free (run
// under -race in CI).
func TestConcurrentLazyFault(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := blockShapes["lowcard"](rng, 6*BlockRows)
	orig := buildSealed(t, "t.c", vals, nil)
	pool := NewPool(0)
	rc := restoreCopy(t, orig, pool)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := r.Intn(len(vals))
				if got := rc.peek(k); got != vals[k] {
					t.Errorf("row %d: %v != %v", k, got, vals[k])
					return
				}
				if i%100 == 0 {
					rc.CompressedBytes() // exercises Bytes on undecoded blocks
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := pool.Stats()
	if st.SegmentsDecoded != 6 || st.SegmentsLazy != 0 {
		t.Fatalf("decoded=%d lazy=%d after concurrent faulting", st.SegmentsDecoded, st.SegmentsLazy)
	}
	if want := orig.CompressedBytes(); rc.CompressedBytes() != want {
		t.Fatalf("compressed bytes %d != %d", rc.CompressedBytes(), want)
	}
}

// TestRestoreRejectsCorruptPayloads flips bytes and truncates payloads;
// RestoreSealed must return an error, never panic, and never accept a
// structurally broken block.
func TestRestoreRejectsCorruptPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, gen := range blockShapes {
		t.Run(name, func(t *testing.T) {
			vals := gen(rng, BlockRows+17)
			orig := buildSealed(t, "t.c", vals, nil)
			blob, metas, err := orig.MarshalBlocks(nil)
			if err != nil {
				t.Fatal(err)
			}
			// Truncations must fail (either at restore or by trailing-byte
			// mismatch).
			for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
				if cut >= len(blob) {
					continue
				}
				if _, err := RestoreSealed("t.c", orig.NullCount(), metas, blob[:cut], nil); err == nil {
					t.Fatalf("truncation at %d accepted", cut)
				}
			}
			// Bad metadata: meta rows beyond BlockRows, oversized interior
			// block, overrunning length.
			bad := append([]BlockMeta(nil), metas...)
			bad[0].Rows = BlockRows + 1
			if _, err := RestoreSealed("t.c", 0, bad, blob, nil); err == nil {
				t.Fatal("oversized block accepted")
			}
			bad = append([]BlockMeta(nil), metas...)
			bad[len(bad)-1].Len += 4
			if _, err := RestoreSealed("t.c", 0, bad, blob, nil); err == nil {
				t.Fatal("overrunning block length accepted")
			}
		})
	}
}

// TestMarshalUndecodedIsVerbatim checks byte stability: marshalling a
// restored (never decoded) column reproduces the original bytes, and
// marshalling after a full decode does too.
func TestMarshalUndecodedIsVerbatim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, gen := range blockShapes {
		vals := gen(rng, 2*BlockRows+100)
		orig := buildSealed(t, "t.c", vals, nil)
		blob, metas, err := orig.MarshalBlocks(nil)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := RestoreSealed("t.c", orig.NullCount(), metas, blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		again, metas2, err := rc.MarshalBlocks(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(blob) {
			t.Fatalf("%s: undecoded re-marshal differs", name)
		}
		if len(metas2) != len(metas) {
			t.Fatalf("%s: meta count differs", name)
		}
		rc.Values() // decode everything
		again, _, err = rc.MarshalBlocks(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(blob) {
			t.Fatalf("%s: decoded re-marshal differs", name)
		}
	}
}
