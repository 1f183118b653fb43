package exec

import (
	"math/bits"

	"srdf/internal/dict"
	"srdf/internal/sparql"
)

// AggregateOp is the vectorized hash GROUP BY/aggregate operator: it
// consumes OID batches from the BGP pipeline and folds them into
// per-group aggregate states (COUNT/SUM/AVG/MIN/MAX, with DISTINCT
// arguments), never materializing the input — memory is bounded by the
// number of groups, not the number of input rows.
//
// Per batch it runs the compiled aggregate arguments once, assigns every
// row a dense group id (see groupIDs: direct-indexed while the GROUP BY
// columns have few distinct values, a hash table past that), and folds
// each aggregate's argument vector into that aggregate's typed states by
// group id: COUNT, SUM and AVG only count and add, MIN and MAX only
// compare. Groups are emitted in the order their first input row
// arrived.
type AggregateOp struct {
	in      Operator
	groupBy []string
	vars    []string
	// Stats is the stats id of the plan node whose OpStats receive the
	// group count and id path (0: none).
	Stats int

	args     program // aggregate arguments over the input batches
	leaves   []aggLeaf
	groupCol []int // input column of each GROUP BY variable (-1: unbound)
	// fin computes the select items per group from the group's first
	// input row and the aggregates' results.
	fin      program
	finItems []finItem
	// per-group state strides: each group owns nSum sumStates, nExt
	// extStates and nSeen DISTINCT sets, stored group-major.
	nSum, nExt, nSeen int

	ctx  *Ctx
	ng   int // groups so far
	sums []sumState
	exts []extState
	seen []map[string]struct{}
	kb   []byte     // a DISTINCT aggregate's value key
	repr []dict.OID // each group's first input row, row-major
	// Direct group ids: each GROUP BY column's OIDs map to dense codes,
	// which concatenate into an index of direct (group id + 1, 0 for
	// none). hashed: the code space outgrew maxDirectBits, and groups
	// holds the ids from then on.
	codes  []codeTable
	direct []int32
	// directBuf backs direct while the index is at most 6 bits wide,
	// so a query with a few groups allocates no direct array.
	directBuf [64]int32
	hashed    bool
	groups    groupTable
	key       []dict.OID
	gids      []int32
	ran       bool
	out       vrowsCursor
}

// aggLeaf is one aggregate of the select list.
type aggLeaf struct {
	x   *sparql.ExAgg
	arg int // argument's instruction in AggregateOp.args; -1 for COUNT(*)
	// col is the input column of a bare-variable argument (else -1):
	// MIN and MAX then return the winning cell's exact term.
	col int
	// slot indexes the leaf's state within a group's sumStates (COUNT,
	// SUM, AVG) or extStates (MIN, MAX); seen its DISTINCT set.
	slot, seen int
	ext        bool
	// shared: an earlier COUNT, SUM or AVG leaf over the same argument
	// folds the sumState this leaf reads (Q1's SUM(?q) and AVG(?q)
	// count and add the same values), so this one folds nothing.
	shared bool
}

// sumState folds COUNT, SUM and AVG: it never compares values.
type sumState struct {
	count  int64
	sumInt int64
	sum    float64
	allInt bool // every counted value was an integer: SUM stays an int
}

// extState folds MIN or MAX.
type extState struct {
	started bool
	n       num
	s       string
	val     dict.Value // the winning value, with its term when it is a variable's
}

// finItem says how one select item resolves per group.
type finItem struct {
	kind byte // 'v' grouped variable, 'a' bare aggregate, 'l' literal, 'e' compiled
	idx  int  // input column, leaf, or fin instruction
	lit  dict.Value
}

// NewAggregateOp builds a streaming grouped-aggregation of items over in.
func NewAggregateOp(in Operator, items []sparql.SelectItem, groupBy []string) *AggregateOp {
	a := &AggregateOp{in: in, groupBy: groupBy}
	inVars := in.Vars()
	var aggs []*sparql.ExAgg
	finSize := 0
	a.vars = make([]string, len(items))
	for i := range items {
		a.vars[i] = items[i].As
		aggs = collectAggs(items[i].Expr, aggs)
		finSize += exprSize(items[i].Expr)
	}
	argSize := 0
	for _, x := range aggs {
		argSize += exprSize(x.Arg)
	}
	a.args.reserve(argSize)
	a.leaves = make([]aggLeaf, len(aggs))
	for j, x := range aggs {
		l := aggLeaf{x: x, arg: -1, col: -1, seen: -1}
		if x.Arg != nil {
			l.arg = a.args.compile(x.Arg, inVars, nil)
		}
		if v, ok := x.Arg.(*sparql.ExVar); ok {
			l.col = varIndex(inVars, v.Name)
		}
		if x.Func == sparql.AggMin || x.Func == sparql.AggMax {
			l.ext, l.slot = true, a.nExt
			a.nExt++
		} else if k := a.sumLeafOf(l.arg, j); !x.Distinct && k >= 0 {
			l.slot, l.shared = a.leaves[k].slot, true
		} else {
			l.slot = a.nSum
			a.nSum++
		}
		if x.Distinct {
			l.seen = a.nSeen
			a.nSeen++
		}
		a.leaves[j] = l
	}
	a.groupCol = make([]int, len(groupBy))
	for i, g := range groupBy {
		a.groupCol[i] = varIndex(inVars, g)
	}
	a.finItems = make([]finItem, len(items))
	for i := range items {
		switch x := items[i].Expr.(type) {
		case *sparql.ExVar:
			a.finItems[i] = finItem{kind: 'v', idx: varIndex(inVars, x.Name)}
		case *sparql.ExAgg:
			for j := range aggs {
				if aggs[j] == x {
					a.finItems[i] = finItem{kind: 'a', idx: j}
					break
				}
			}
		case *sparql.ExLit:
			a.finItems[i] = finItem{kind: 'l', lit: x.Val}
		default:
			a.fin.reserve(finSize)
			a.finItems[i] = finItem{kind: 'e', idx: a.fin.compile(x, inVars, aggs)}
		}
	}
	return a
}

// sumLeafOf returns the first of the leaves before j that folds its own
// sumState over argument arg without DISTINCT, or -1.
func (a *AggregateOp) sumLeafOf(arg, j int) int {
	for k, l := range a.leaves[:j] {
		if !l.ext && !l.shared && l.seen < 0 && l.arg == arg {
			return k
		}
	}
	return -1
}

// NumAggs reports the number of aggregate leaves (for plan explain).
func (a *AggregateOp) NumAggs() int { return len(a.leaves) }

func (a *AggregateOp) Vars() []string { return a.vars }

func (a *AggregateOp) Open(ctx *Ctx) error {
	a.ctx = ctx
	return a.in.Open(ctx)
}

func (a *AggregateOp) Next(b *VBatch) bool {
	if !a.ran {
		a.ran = true
		a.run()
	}
	return a.out.fill(b)
}

func (a *AggregateOp) Close() { a.in.Close() }

// run drains the input into group states and materializes the (small)
// one-row-per-group output.
func (a *AggregateOp) run() {
	a.groups.width = len(a.groupCol)
	a.key = make([]dict.OID, len(a.groupCol))
	if !a.hashed {
		a.codes = make([]codeTable, len(a.groupCol))
		for j := range a.codes {
			a.codes[j].slots = a.codes[j].slotBuf[:]
		}
		a.direct = a.directBuf[:1]
	}
	a.gids = selBlocks.get()
	b := NewBatch(a.in.Vars())
	for !a.ctx.Cancelled() && a.in.Next(b) {
		if err := a.fold(b); err != nil {
			a.ctx.Fail(err)
			break
		}
		b.Reset()
	}
	a.args.release()
	selBlocks.put(a.gids)
	a.gids = nil
	if a.ctx.ExecErr() == nil {
		a.out = vrowsCursor{rows: a.finish()}
		a.fin.release()
	} else {
		// the aggregation failed (memory budget): emit nothing and let
		// the iterator report the recorded cause
		a.out = vrowsCursor{}
	}
	// after finish, which gives an ungrouped aggregate over no rows its
	// one group
	if st := a.ctx.Stats.Node(a.Stats); st != nil {
		st.Groups.Store(int64(a.ng))
		st.GroupsHashed.Store(a.hashed)
	}
}

// fold folds one input batch into the group states. It fails with
// ErrMemBudget when a new group would exceed the query's memory budget
// (group state is what makes aggregation memory grow; folds into
// existing groups are free).
//
// The SUM, AVG and COUNT leaves fold an argument vector whose rows are
// all VInt or all VFloat (its typed lane, see vec.lane) in a loop
// without a per-row kind switch; any other vector takes sumState.add.
// Either way each group adds its rows in row order, so a float sum is
// the same whichever loop ran.
func (a *AggregateOp) fold(b *Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	a.args.run(a.ctx, b.Cols, b.Sel, n, nil)
	gids := a.gids[:n]
	if err := a.groupIDs(b, gids); err != nil {
		return err
	}
	for j := range a.leaves {
		l := &a.leaves[j]
		switch {
		case l.shared:
		case l.arg < 0: // COUNT(*)
			for _, g := range gids {
				a.sums[int(g)*a.nSum+l.slot].count++
			}
		case l.seen >= 0:
			a.foldDistinct(l, b, gids)
		case l.ext:
			x := a.args.result(l.arg)
			for k, g := range gids {
				if x.v[k].k != dict.VInvalid {
					a.foldExt(l, b, int(g), x, k)
				}
			}
		default:
			x := a.args.result(l.arg)
			sums, stride := a.sums[l.slot:], a.nSum
			switch x.lane {
			case dict.VFloat:
				for k, g := range gids {
					s := &sums[int(g)*stride]
					s.sum += x.v[k].f
					s.count++
					s.allInt = false
				}
			case dict.VInt:
				for k, g := range gids {
					s := &sums[int(g)*stride]
					s.sumInt += x.v[k].i
					s.sum += float64(x.v[k].i)
					s.count++
				}
			default:
				for k, g := range gids {
					sums[int(g)*stride].add(x.v[k])
				}
			}
		}
	}
	return nil
}

// maxDirectBits bounds the direct group-id index: while the GROUP BY
// columns' code counts, each rounded up to a power of two, multiply to
// at most 1<<maxDirectBits, a group id is one array load.
const maxDirectBits = 12

// groupIDs sets gids[k] to the group id of logical row k, adding groups
// in first-seen order. Each GROUP BY column maps its OIDs to dense codes
// (an unbound column, always dict.Nil, has the one code 0); the codes
// concatenate, column by column, into a bit-packed index of the direct
// array, so no key tuple is hashed or compared. The first batch that
// takes the index past maxDirectBits moves the groups, ids unchanged,
// to the hash table, which serves every row from then on.
func (a *AggregateOp) groupIDs(b *Batch, gids []int32) error {
	if !a.hashed {
		clear(gids)
		shift, grew := uint(0), false
		for j, c := range a.groupCol {
			t := &a.codes[j]
			if c < 0 {
				t.code(dict.Nil)
				continue
			}
			col := b.Cols[c]
			last, code := dict.Nil, int32(-1)
			for k := range gids {
				phys := k
				if b.Sel != nil {
					phys = int(b.Sel[k])
				}
				if o := col[phys]; o != last || code < 0 {
					// o in its home slot needs no call
					if e := t.slots[t.home(o)]; e.oid == o && e.code != 0 {
						last, code = o, e.code-1
					} else {
						last, code = o, t.code(o)
					}
				}
				gids[k] |= code << shift
			}
			if w := uint(bits.Len(uint(t.n - 1))); w != t.bits {
				t.bits, grew = w, true
			}
			if shift += t.bits; shift > maxDirectBits {
				break
			}
		}
		switch {
		case shift > maxDirectBits:
			a.toHash()
		case grew:
			a.relayout(shift)
		}
	}
	if !a.hashed {
		for k, idx := range gids {
			g := a.direct[idx] - 1
			if g < 0 {
				if err := a.newGroup(b, k); err != nil {
					return err
				}
				g = int32(a.ng - 1)
				a.direct[idx] = g + 1
			}
			gids[k] = g
		}
		return nil
	}
	for k := range gids {
		phys := k
		if b.Sel != nil {
			phys = int(b.Sel[k])
		}
		for j, c := range a.groupCol {
			a.key[j] = dict.Nil
			if c >= 0 {
				a.key[j] = b.Cols[c][phys]
			}
		}
		gid, isNew := a.groups.find(a.key)
		if isNew {
			if err := a.newGroup(b, k); err != nil {
				return err
			}
		}
		gids[k] = gid
	}
	return nil
}

// newGroup adds a group whose first input row is logical row k of b.
func (a *AggregateOp) newGroup(b *Batch, k int) error {
	if err := a.ctx.Mem.Grow(int64(len(a.groupCol))*8 + int64(len(b.Cols))*8 + int64(len(a.leaves))*48 + 64); err != nil {
		return err
	}
	phys := k
	if b.Sel != nil {
		phys = int(b.Sel[k])
	}
	for c := range b.Cols {
		a.repr = append(a.repr, b.Cols[c][phys])
	}
	a.addGroup()
	return nil
}

// groupKey writes group g's GROUP BY key, read off its first input row,
// to a.key.
func (a *AggregateOp) groupKey(g int) []dict.OID {
	width := len(a.in.Vars())
	for j, c := range a.groupCol {
		a.key[j] = dict.Nil
		if c >= 0 {
			a.key[j] = a.repr[g*width+c]
		}
	}
	return a.key
}

// relayout rebuilds the direct array for an index of width bits after a
// column's code field widened: every group's index moves.
func (a *AggregateOp) relayout(width uint) {
	if 1<<width <= len(a.directBuf) {
		a.direct = a.directBuf[:1<<width]
		clear(a.direct)
	} else {
		a.direct = make([]int32, 1<<width)
	}
	for g := 0; g < a.ng; g++ {
		idx, shift := int32(0), uint(0)
		for j, o := range a.groupKey(g) {
			idx |= a.codes[j].code(o) << shift
			shift += a.codes[j].bits
		}
		a.direct[idx] = int32(g + 1)
	}
}

// toHash moves the groups so far, in id order, to the hash table and
// drops the direct path.
func (a *AggregateOp) toHash() {
	for g := 0; g < a.ng; g++ {
		a.groups.find(a.groupKey(g))
	}
	a.hashed, a.codes, a.direct = true, nil, nil
}

// codeTable maps one GROUP BY column's OIDs to dense codes 0, 1, ... in
// first-seen order: open addressing over a power-of-two slot array kept
// at most half full, which starts in the table's own slotBuf, so a
// low-cardinality column allocates nothing. bits is the width of the
// column's field in a direct index.
type codeTable struct {
	slots   []codeSlot
	n       int32 // codes so far
	bits    uint
	slotBuf [16]codeSlot
}

type codeSlot struct {
	oid  dict.OID
	code int32 // code + 1; 0 = empty
}

// code returns o's code, adding one when o is new.
func (t *codeTable) code(o dict.OID) int32 {
	if 2*(int(t.n)+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]codeSlot, 4*len(old))
		for _, e := range old {
			if e.code != 0 {
				t.slots[t.slot(e.oid)] = e
			}
		}
	}
	i := t.slot(o)
	if e := t.slots[i]; e.code != 0 {
		return e.code - 1
	}
	t.n++
	t.slots[i] = codeSlot{oid: o, code: t.n}
	return t.n - 1
}

// home is o's first probe slot.
func (t *codeTable) home(o dict.OID) int {
	return int(uint64(o)*0x9e3779b97f4a7c15>>40) & (len(t.slots) - 1)
}

// slot returns o's slot: where it is, or the empty slot it belongs in.
func (t *codeTable) slot(o dict.OID) int {
	mask := len(t.slots) - 1
	for i := t.home(o); ; i = (i + 1) & mask {
		if e := t.slots[i]; e.code == 0 || e.oid == o {
			return i
		}
	}
}

// addGroup appends one group's zero states.
func (a *AggregateOp) addGroup() {
	a.ng++
	for i := 0; i < a.nSum; i++ {
		a.sums = append(a.sums, sumState{allInt: true})
	}
	for i := 0; i < a.nExt; i++ {
		a.exts = append(a.exts, extState{})
	}
	for i := 0; i < a.nSeen; i++ {
		a.seen = append(a.seen, nil)
	}
}

// add counts one value: invalid values are skipped, and any non-integer
// turns SUM's result into a float.
func (s *sumState) add(v num) {
	switch v.k {
	case dict.VInvalid:
		return
	case dict.VInt:
		s.sumInt += v.i
		s.sum += float64(v.i)
	case dict.VFloat:
		s.sum += v.f
		s.allInt = false
	default:
		s.allInt = false
	}
	s.count++
}

// foldDistinct folds the values of a DISTINCT aggregate that each group
// has not seen yet: a bare variable's values are told apart as terms,
// a computed argument's by value (see appendCellKey).
func (a *AggregateOp) foldDistinct(l *aggLeaf, b *Batch, gids []int32) {
	x := a.args.result(l.arg)
	for k, g := range gids {
		if x.v[k].k == dict.VInvalid {
			continue
		}
		if l.col >= 0 {
			a.kb = appendCellKey(a.kb[:0], dict.Value{OID: b.At(l.col, k)})
		} else {
			a.kb = appendCellKey(a.kb[:0], x.value(k))
		}
		set := &a.seen[int(g)*a.nSeen+l.seen]
		if _, dup := (*set)[string(a.kb)]; dup {
			continue
		}
		if *set == nil {
			*set = map[string]struct{}{}
		}
		(*set)[string(a.kb)] = struct{}{}
		if l.ext {
			a.foldExt(l, b, int(g), x, k)
		} else {
			a.sums[int(g)*a.nSum+l.slot].add(x.v[k])
		}
	}
}

// foldExt folds row k of x into a MIN/MAX state of group g; the first
// of equal values wins.
func (a *AggregateOp) foldExt(l *aggLeaf, b *Batch, g int, x *vec, k int) {
	e := &a.exts[g*a.nExt+l.slot]
	v, s := x.v[k], x.text(k)
	if e.started {
		c := compareNum(v, s, e.n, e.s)
		if (l.x.Func == sparql.AggMin && c >= 0) || (l.x.Func == sparql.AggMax && c <= 0) {
			return
		}
	}
	e.started, e.n, e.s = true, v, s
	if l.col >= 0 {
		e.val = a.ctx.valueOf(b.At(l.col, k))
	} else {
		e.val = x.value(k)
	}
}

// result is leaf l's value for group g.
func (a *AggregateOp) result(l *aggLeaf, g int) dict.Value {
	if l.ext {
		e := &a.exts[g*a.nExt+l.slot]
		if !e.started {
			return dict.Value{}
		}
		return e.val
	}
	s := &a.sums[g*a.nSum+l.slot]
	switch l.x.Func {
	case sparql.AggCount:
		return dict.Value{Kind: dict.VInt, Int: s.count}
	case sparql.AggSum:
		if s.allInt {
			return dict.Value{Kind: dict.VInt, Int: s.sumInt}
		}
		return dict.Value{Kind: dict.VFloat, Float: s.sum}
	default: // AVG
		if s.count == 0 {
			return dict.Value{}
		}
		return dict.Value{Kind: dict.VFloat, Float: s.sum / float64(s.count)}
	}
}

// finish resolves the select items per group into output rows, a batch
// of groups at a time.
func (a *AggregateOp) finish() [][]dict.Value {
	width := len(a.in.Vars())
	ng := a.ng
	// An aggregate query with no GROUP BY over an empty input still
	// yields one row (SUM=0 via empty states) whose variables are unbound.
	if ng == 0 && len(a.groupBy) == 0 {
		a.repr = append(a.repr, make([]dict.OID, width)...)
		a.addGroup()
		ng = 1
	}
	rows := make([][]dict.Value, ng)
	cells := make([]dict.Value, ng*len(a.finItems))
	chunk := min(ng, BatchRows)
	leafOut := make([][]dict.Value, len(a.leaves))
	leafBuf := make([]dict.Value, len(a.leaves)*chunk)
	cols := make([][]dict.OID, width)
	colBuf := make([]dict.OID, width*chunk)
	for g0 := 0; g0 < ng; g0 += chunk {
		n := min(chunk, ng-g0)
		for j := range a.leaves {
			out := leafBuf[j*chunk : j*chunk+n]
			for k := range out {
				out[k] = a.result(&a.leaves[j], g0+k)
			}
			leafOut[j] = out
		}
		for c := range cols {
			col := colBuf[c*chunk : c*chunk+n]
			for k := range col {
				col[k] = a.repr[(g0+k)*width+c]
			}
			cols[c] = col
		}
		if len(a.fin.code) > 0 {
			a.fin.run(a.ctx, cols, nil, n, leafOut)
		}
		for k := 0; k < n; k++ {
			row := cells[(g0+k)*len(a.finItems) : (g0+k+1)*len(a.finItems)]
			for i, it := range a.finItems {
				switch it.kind {
				case 'v':
					if it.idx >= 0 {
						row[i] = a.ctx.valueOf(cols[it.idx][k])
					}
				case 'a':
					row[i] = leafOut[it.idx][k]
				case 'l':
					row[i] = it.lit
				default:
					row[i] = a.fin.result(it.idx).value(k)
				}
			}
			rows[g0+k] = row
		}
	}
	return rows
}

// groupTable assigns dense group ids, in first-appearance order, to
// tuples of width group-key OIDs: open addressing with linear probing
// over a power-of-two slot array kept at most half full.
type groupTable struct {
	width int
	n     int
	keys  []dict.OID // group g's key is keys[g*width : (g+1)*width]
	slots []int32    // group id + 1; 0 = empty
}

// find returns key's group id, adding a group when the key is new.
func (t *groupTable) find(key []dict.OID) (int32, bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.rehash()
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(t.n + 1)
			t.keys = append(t.keys, key...)
			t.n++
			return int32(t.n - 1), true
		}
		if g := int(s - 1); keyEq(t.keys[g*t.width:(g+1)*t.width], key) {
			return int32(g), false
		}
	}
}

// rehash sizes the slot array for twice the current groups and
// reinserts them.
func (t *groupTable) rehash() {
	size := 16
	for size < 4*(t.n+1) {
		size *= 2
	}
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for g := 0; g < t.n; g++ {
		i := hashKey(t.keys[g*t.width:(g+1)*t.width]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g + 1)
	}
}

func hashKey(key []dict.OID) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, o := range key {
		h ^= uint64(o)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

func keyEq(a, b []dict.OID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
