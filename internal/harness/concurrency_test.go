package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"srdf/internal/core"
	"srdf/internal/cs"
	"srdf/internal/dict"
	"srdf/internal/nt"
	"srdf/internal/plan"
	"srdf/internal/triples"
)

// TestConcurrentReadWrite runs writers (Add/Delete/Compact, plus an
// occasional full Organize) against concurrent snapshot readers under
// the race detector. Consistency oracle: every subject carries two star
// properties whose values the writers keep equal, updating them
// delete-both-then-add-both — so at every refresh point a subject
// either exposes a matched (v,v) pair or no complete pair at all. A row
// with a ≠ b means a reader's snapshot tore across epochs. Each new
// version is an integer literal minted after Organize, so the range
// readers plan their FILTERs against the overflow index while writers
// keep growing it; a row outside the range means a plan read an index
// newer or older than its epoch.
func TestConcurrentReadWrite(t *testing.T) {
	const (
		nSubjects     = 64
		nWriters      = 2
		nReaders      = 4
		nRangeReaders = 2
		writerOps     = 150
	)
	pa, pb := NS+"pa", NS+"pb"
	subj := func(i int) dict.Term { return dict.IRI(fmt.Sprintf("%sc%d", NS, i)) }
	pair := func(i, v int) (nt.Triple, nt.Triple) {
		return nt.Triple{S: subj(i), P: dict.IRI(pa), O: dict.IntLit(int64(v))},
			nt.Triple{S: subj(i), P: dict.IRI(pb), O: dict.IntLit(int64(v))}
	}

	opts := core.DefaultOptions()
	opts.CS.MinSupport = 3
	opts.CompactThreshold = 32 // auto-compact under load too
	st := core.NewStore(opts)
	// versions[i] is the value currently (or last) written for subject i;
	// writers own disjoint subject ranges so pairs stay well-formed.
	versions := make([]atomic.Int64, nSubjects)
	for i := 0; i < nSubjects; i++ {
		a, b := pair(i, 0)
		st.Add(a)
		st.Add(b)
	}
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}

	q := fmt.Sprintf("SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b }", pa, pb)
	qo := core.QueryOptions{Mode: plan.ModeRDFScan, ZoneMaps: true}

	var wg sync.WaitGroup
	errs := make(chan error, nWriters+nReaders+nRangeReaders)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	for w := 0; w < nWriters; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := w * (nSubjects / nWriters)
			hi := lo + nSubjects/nWriters
			for op := 0; op < writerOps; op++ {
				i := lo + (op*7)%(hi-lo)
				old := int(versions[i].Load())
				next := old + 1
				oa, ob := pair(i, old)
				na, nb := pair(i, next)
				// delete both, then add both: no intermediate state
				// exposes a mixed pair
				st.Delete(oa)
				st.Delete(ob)
				st.Add(na)
				st.Add(nb)
				versions[i].Store(int64(next))
				if op%25 == 24 {
					if _, err := st.Compact(); err != nil {
						fail("writer %d: Compact: %v", w, err)
						return
					}
				}
			}
		}()
	}

	// One reorganizer thread: Organize must serialize with the open
	// streams via the reader gate, never crash them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			if _, err := st.Organize(); err != nil {
				fail("organize: %v", err)
				return
			}
		}
	}()

	for r := 0; r < nReaders; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				rows, err := st.QueryStream(context.Background(), q, qo)
				if err != nil {
					fail("reader %d: %v", r, err)
					return
				}
				n := 0
				for rows.Next() {
					row := rows.Row()
					if len(row) != 3 {
						fail("reader %d: torn row arity %d", r, len(row))
						rows.Close()
						return
					}
					a, b := row[1], row[2]
					if a.Kind != dict.VInt || b.Kind != dict.VInt || a.Int != b.Int {
						fail("reader %d: torn row: a=%s b=%s (subject %s)", r, a.Lexical(), b.Lexical(), row[0].Lexical())
						rows.Close()
						return
					}
					n++
				}
				if n == 0 {
					fail("reader %d: snapshot lost all %d subjects", r, nSubjects)
					return
				}
				// materialized API interleaved with streams
				if it%8 == 0 {
					if _, err := st.Query(q, qo); err != nil {
						fail("reader %d: Query: %v", r, err)
						return
					}
				}
				// lock-free schema readers: published schemas must never
				// be mutated by the delta path (SubjectCS, CS stats)
				if it%5 == 0 {
					if sc := st.Schema(); sc != nil {
						_ = sc.Summarize(cs.SummaryOptions{MinSupport: 1})
						_ = sc.String()
					}
					_ = st.SQLSchema()
				}
			}
		}()
	}

	for r := 0; r < nRangeReaders; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				lo := it % 4
				hi := lo + 2 + it%3
				q := fmt.Sprintf("SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b . FILTER (?a >= %d && ?b < %d) }",
					pa, pb, lo, hi)
				mode := qo
				if it%3 == 2 {
					mode = core.QueryOptions{Mode: plan.ModeDefault}
				}
				rows, err := st.QueryStream(context.Background(), q, mode)
				if err != nil {
					fail("range reader %d: %v", r, err)
					return
				}
				for rows.Next() {
					row := rows.Row()
					a, b := row[1], row[2]
					if a.Kind != dict.VInt || a.Int != b.Int || a.Int < int64(lo) || b.Int >= int64(hi) {
						fail("range reader %d: row a=%s b=%s outside [%d,%d) or torn", r, a.Lexical(), b.Lexical(), lo, hi)
						rows.Close()
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := st.Dict().CheckOrder(); err != nil {
		t.Fatal(err)
	}

	// Quiesced store must agree with the versions the writers left.
	res, err := st.Query(q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != nSubjects {
		t.Fatalf("after quiesce: %d rows, want %d", res.Len(), nSubjects)
	}
	for _, row := range res.Rows {
		if row[1].Int != row[2].Int {
			t.Fatalf("after quiesce: mismatched pair %v", row)
		}
	}
}

// TestConcurrentLazyProjections races first use of the triple
// projections: one published snapshot is shared by readers whose plans
// each need a different sort order (sorted on demand, at execution
// time, outside every store lock), while a writer keeps adding,
// deleting and refreshing — so the next index set is being merged from
// the very set the readers are still extending — and an occasional
// Organize starts over from SPO alone. Every reader has an invariant
// the writer never breaks, and the quiesced store must answer every
// shape exactly like a fresh store built from the final triples.
func TestConcurrentLazyProjections(t *testing.T) {
	const (
		nSubjects = 48
		writerOps = 120
		readerIts = 60
	)
	pa, pb, pm := NS+"la", NS+"lb", NS+"mark"
	subj := func(i int) dict.Term { return dict.IRI(fmt.Sprintf("%sl%d", NS, i)) }
	pair := func(i, v int) (nt.Triple, nt.Triple) {
		return nt.Triple{S: subj(i), P: dict.IRI(pa), O: dict.IntLit(int64(v))},
			nt.Triple{S: subj(i), P: dict.IRI(pb), O: dict.IntLit(int64(v))}
	}
	mark := func(i int) nt.Triple { return nt.Triple{S: subj(i), P: dict.IRI(pm), O: dict.StringLit("m")} }

	st := autoStore(32)
	versions := make([]int, nSubjects) // owned by the single writer
	for i := 0; i < nSubjects; i++ {
		a, b := pair(i, 0)
		st.Add(a)
		st.Add(b)
		st.Add(mark(i))
	}
	if _, err := st.Organize(); err != nil {
		t.Fatal(err)
	}

	def := core.QueryOptions{Mode: plan.ModeDefault}
	type shape struct {
		name, q string
		qo      core.QueryOptions
		// rows is the invariant row count (-1: any non-zero count)
		rows int
	}
	shapes := []shape{
		// ?p unbound, O bound: OSP
		{"by object", `SELECT ?s ?p WHERE { ?s ?p "m" }`, coreQO(), nSubjects},
		// S and O bound: SOP
		{"by subject+object", fmt.Sprintf(`SELECT ?p WHERE { <%sl0> ?p "m" }`, NS), coreQO(), 1},
		// nothing bound: the whole SPO order
		{"everything", `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`, coreQO(), -1},
		// Default star: PSO and POS; pairs must never tear
		{"default star", fmt.Sprintf("SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b }", pa, pb), def, -1},
		// RDFscan over the same star, touching the irregular residue's own set
		{"rdfscan star", fmt.Sprintf("SELECT ?s ?a ?b WHERE { ?s <%s> ?a . ?s <%s> ?b }", pa, pb), coreQO(), -1},
	}

	lazy := []triples.Perm{triples.OSP, triples.SOP, triples.PSO}
	var builds0, merges0 [6]uint64
	for _, p := range lazy {
		builds0[p], merges0[p] = triples.ProjectionCounts(p)
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(shapes)+2)
	var stop atomic.Bool
	fail := func(format string, args ...any) {
		stop.Store(true)
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// answered counts each reader's completed queries. awaitReaders
	// blocks the writer until each reader has answered twice more, so at
	// least one of those queries began after the last write: however the
	// scheduler favours the writer, the readers sort their orders on the
	// fresh set of every Organize and merge the next write into them.
	answered := make([]atomic.Int64, len(shapes))
	awaitReaders := func() {
		base := make([]int64, len(answered))
		for r := range answered {
			base[r] = answered[r].Load()
		}
		for r := range answered {
			for answered[r].Load() < base[r]+2 && !stop.Load() {
				runtime.Gosched()
			}
		}
	}

	// the writer starts once every reader has answered once (so each
	// order exists to be merged) and the readers keep going until it is
	// done (so each Organize's fresh set is extended under its feet)
	var warm sync.WaitGroup
	warm.Add(len(shapes))
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(writerDone)
		warm.Wait()
		for op := 0; op < writerOps; op++ {
			i := (op * 7) % nSubjects
			oa, ob := pair(i, versions[i])
			versions[i]++
			na, nb := pair(i, versions[i])
			st.Delete(oa)
			st.Delete(ob)
			st.Add(na)
			st.Add(nb)
			if op%3 == 0 {
				st.NumTriples() // applies the deletions ahead of the refresh
			}
			if op%40 == 39 {
				// a fresh index set: every order but SPO is lazy again
				if _, err := st.Organize(); err != nil {
					fail("organize: %v", err)
					return
				}
			}
			if op%40 == 0 || op%40 == 39 {
				awaitReaders()
			}
		}
	}()

	for r, sh := range shapes {
		r, sh := r, sh
		wg.Add(1)
		go func() {
			defer wg.Done()
			warmed := false
			defer func() {
				if !warmed {
					warm.Done()
				}
			}()
			for it := 0; ; it++ {
				if it >= readerIts {
					select {
					case <-writerDone:
						return
					default:
					}
				}
				res, err := st.Query(sh.q, sh.qo)
				if !warmed {
					warmed = true
					warm.Done()
				}
				if err != nil {
					fail("reader %d (%s): %v", r, sh.name, err)
					return
				}
				if res.Len() == 0 || (sh.rows >= 0 && res.Len() != sh.rows) {
					fail("reader %d (%s): %d rows, want %d", r, sh.name, res.Len(), sh.rows)
					return
				}
				if len(res.Vars) == 3 && res.Vars[1] == "a" {
					for _, row := range res.Rows {
						if row[1].Int != row[2].Int {
							fail("reader %d (%s): torn pair %s/%s", r, sh.name, row[1].Lexical(), row[2].Lexical())
							return
						}
					}
				}
				answered[r].Add(1)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// the race above is only worth its name if the orders really were
	// sorted by readers and then carried across refreshes by the writer
	for _, p := range lazy {
		b, m := triples.ProjectionCounts(p)
		if b == builds0[p] || m == merges0[p] {
			t.Errorf("%v: %d first-use sorts and %d merges during the run, want both", p, b-builds0[p], m-merges0[p])
		}
	}

	fresh := newStore()
	for i := 0; i < nSubjects; i++ {
		a, b := pair(i, versions[i])
		fresh.Add(a)
		fresh.Add(b)
		fresh.Add(mark(i))
	}
	if _, err := fresh.Organize(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range shapes {
		got, err := st.Query(sh.q, sh.qo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Query(sh.q, sh.qo)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := sorted(renderRows(got.Rows)), sorted(renderRows(want.Rows)); !eqSeq(g, w) {
			t.Errorf("%s: the concurrently updated store returns %d rows, a fresh store %d\n got: %v\nwant: %v",
				sh.name, len(g), len(w), g, w)
		}
	}
}
