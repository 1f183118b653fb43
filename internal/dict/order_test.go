package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randLiteral draws from a small value space on purpose: collisions,
// equal values under distinct terms ("05" and "5", "5.0" and "5.00"),
// and neighbouring types ("5" and "5.0") are the cases that matter.
func randLiteral(r *rand.Rand) Term {
	n := r.Intn(12)
	switch r.Intn(6) {
	case 0:
		return IntLit(int64(n))
	case 1:
		return TypedLit(fmt.Sprintf("0%d", n), XSDInt)
	case 2:
		return TypedLit(fmt.Sprintf("%d.%d", n, 5*r.Intn(2)), XSDDec)
	case 3:
		return TypedLit(fmt.Sprintf("%d.00", n), XSDDec)
	case 4:
		return DateLit(fmt.Sprintf("1995-0%d-1%d", 1+r.Intn(9), r.Intn(10)))
	default:
		return StringLit(fmt.Sprintf("s%d", n))
	}
}

func randBound(r *rand.Rand) Bound {
	if r.Intn(4) == 0 {
		return Bound{}
	}
	t := randLiteral(r)
	return Bound{V: ParseLiteral(t.Value, t.Datatype, t.Lang), Strict: r.Intn(2) == 0, Set: true}
}

// organize renumbers d's literals into value order, as Organize does.
func organize(d *Dictionary) {
	vals := d.LiteralValues()
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return Compare(vals[order[i]], vals[order[j]]) < 0 })
	litMap := make([]uint64, len(vals))
	for nw, old := range order {
		litMap[old] = uint64(nw + 1)
	}
	d.Remap(nil, litMap, true)
}

// TestLiteralOrderRangeQuick: for random intern sequences before and
// after the remap, the prefix interval plus the overflow members of
// every random range is exactly the set of literals whose values the
// range admits, by brute force over all literals.
func TestLiteralOrderRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := New()
		for i := 0; i < 1+r.Intn(40); i++ {
			d.Intern(randLiteral(r))
		}
		organize(d)
		minted := r.Intn(30)
		for i := 0; i < minted; i++ {
			d.Intern(randLiteral(r))
			if r.Intn(5) == 0 {
				d.LiteralOrder() // fold some mints early, some late
			}
		}
		if err := d.CheckOrder(); err != nil {
			t.Log(err)
			return false
		}
		view := d.LiteralOrder()
		vals := d.LiteralValues()
		for k := 0; k < 20; k++ {
			lo, hi := randBound(r), randBound(r)
			first, last, over := view.Range(lo, hi)
			got := map[OID]bool{}
			for p := first; p <= last; p++ {
				got[p] = true
			}
			for i, o := range over {
				if o.Payload() <= view.N || (i > 0 && over[i-1] >= o) {
					t.Logf("overflow member %v not past N=%d or not ascending", o, view.N)
					return false
				}
				got[o] = true
			}
			for p := range vals {
				o := LiteralOID(uint64(p + 1))
				cl, ch := Compare(vals[p], lo.V), Compare(vals[p], hi.V)
				want := (!lo.Set || cl > 0 || (cl == 0 && !lo.Strict)) && (!hi.Set || ch < 0 || (ch == 0 && !hi.Strict))
				if got[o] != want {
					t.Logf("seed %d: %v (%+v) in=%v want %v; lo=%+v hi=%+v N=%d", seed, o, vals[p], got[o], want, lo, hi, view.N)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLiteralOrderViewImmutable: a published view keeps answering for
// its instant while the dictionary mints more literals.
func TestLiteralOrderViewImmutable(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		d.Intern(IntLit(int64(2 * i)))
	}
	organize(d)
	d.Intern(IntLit(5))
	v1 := d.LiteralOrder()
	for i := 0; i < 20; i++ {
		d.Intern(IntLit(int64(2*i + 1)))
	}
	v2 := d.LiteralOrder()
	lo := Bound{V: Value{Kind: VInt, Int: 3}, Set: true}
	hi := Bound{V: Value{Kind: VInt, Int: 7}, Set: true}
	if _, _, over := v1.Range(lo, hi); len(over) != 1 || len(v1.over) != 1 {
		t.Fatalf("old view: %v (overflow %d), want just the literal 5", over, len(v1.over))
	}
	if _, _, over := v2.Range(lo, hi); len(over) != 3 {
		t.Fatalf("new view: %v, want 3, 5, 7", over)
	}
	if ord, ovf := d.LiteralOrderCounts(); ord != 10 || ovf != 20 {
		t.Fatalf("counts %d/%d, want 10/20", ord, ovf)
	}
}

// TestCheckOrderDetects: CheckOrder rejects a watermark over literals
// that are not in value order, and stays quiet without one.
func TestCheckOrderDetects(t *testing.T) {
	d := New()
	for _, v := range []int64{3, 1, 2} {
		d.Intern(IntLit(v))
	}
	if err := d.CheckOrder(); err != nil {
		t.Fatalf("no watermark, nothing claimed: %v", err)
	}
	d.Remap(nil, []uint64{1, 2, 3}, true) // identity: still 3, 1, 2
	if err := d.CheckOrder(); err == nil {
		t.Fatal("unordered prefix accepted")
	}
	r := RestoreDictionary(nil, []LiteralRec{{Lex: "1", Datatype: XSDInt}, {Lex: "2", Datatype: XSDInt}, {Lex: "0", Datatype: XSDInt}}, 2)
	if err := r.CheckOrder(); err != nil {
		t.Fatalf("restored watermark 2 over 1, 2 with overflow 0: %v", err)
	}
	if ord, ovf := r.LiteralOrderCounts(); ord != 2 || ovf != 1 {
		t.Fatalf("restored counts %d/%d, want 2/1", ord, ovf)
	}
	if r := RestoreDictionary(nil, []LiteralRec{{Lex: "2", Datatype: XSDInt}, {Lex: "1", Datatype: XSDInt}}, 2); r.CheckOrder() == nil {
		t.Fatal("restored watermark over unordered literals accepted")
	}
}
