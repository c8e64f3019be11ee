package space

import (
	"fmt"
	"testing"

	"peats/internal/tuple"
)

// storePair feeds the reference slice store and the indexed store the
// same calls and fails on the first divergence, so each test below
// states only the call sequence it probes.
type storePair struct {
	t   *testing.T
	ref *SliceStore
	idx *IndexedStore
	seq uint64
}

func newStorePair(t *testing.T) *storePair {
	return &storePair{t: t, ref: NewSliceStore(), idx: NewIndexedStore()}
}

func (p *storePair) out(fields ...tuple.Field) {
	p.seq++
	e := tuple.T(fields...)
	p.ref.Insert(e, p.seq)
	p.idx.Insert(e, p.seq)
}

// find runs Find on both engines and returns the shared result.
func (p *storePair) find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, bool) {
	p.t.Helper()
	a, as, aok := p.ref.Find(tmpl, remove)
	b, bs, bok := p.idx.Find(tmpl, remove)
	if aok != bok || as != bs || !a.Equal(b) {
		p.t.Fatalf("Find(%v, %v): slice %v@%d ok=%v, indexed %v@%d ok=%v",
			tmpl, remove, a, as, aok, b, bs, bok)
	}
	return b, bok
}

// check compares FindAll and Count for tmpl, and the full snapshots.
func (p *storePair) check(tmpl tuple.Tuple) {
	p.t.Helper()
	fa, fb := p.ref.FindAll(tmpl), p.idx.FindAll(tmpl)
	if len(fa) != len(fb) {
		p.t.Fatalf("FindAll(%v): slice %v, indexed %v", tmpl, fa, fb)
	}
	for i := range fa {
		if fa[i].Seq != fb[i].Seq || !fa[i].T.Equal(fb[i].T) {
			p.t.Fatalf("FindAll(%v)[%d]: slice %v, indexed %v", tmpl, i, fa[i], fb[i])
		}
	}
	if ca, cb := p.ref.Count(tmpl), p.idx.Count(tmpl); ca != cb || cb != len(fb) {
		p.t.Fatalf("Count(%v): slice %d, indexed %d, FindAll %d", tmpl, ca, cb, len(fb))
	}
	sa, sb := p.ref.Snapshot(), p.idx.Snapshot()
	if len(sa) != len(sb) {
		p.t.Fatalf("snapshot lens %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Seq != sb[i].Seq || !sa[i].T.Equal(sb[i].T) {
			p.t.Fatalf("snapshot[%d]: slice %v, indexed %v", i, sa[i], sb[i])
		}
	}
}

var (
	i1 = tuple.Int(1)
	i2 = tuple.Int(2)
	wc = tuple.Any()
)

// TestIndexedRepeatedValueAcrossPositions stores one value in every
// position of a tuple, so the record sits in three position indexes
// under the same hash: every template shape must still return it once.
func TestIndexedRepeatedValueAcrossPositions(t *testing.T) {
	p := newStorePair(t)
	p.out(i1, i1, i1)
	p.out(i2, i1, i2)
	for _, tmpl := range []tuple.Tuple{
		tuple.T(i1, i1, i1),
		tuple.T(i1, wc, wc),
		tuple.T(wc, i1, wc),
		tuple.T(wc, wc, i1),
		tuple.T(wc, i1, tuple.Formal("v")),
		tuple.T(wc, wc, wc),
	} {
		p.find(tmpl, false)
		p.check(tmpl)
	}
	if n := p.idx.Count(tuple.T(wc, i1, wc)); n != 2 {
		t.Fatalf("Count(<*, 1, *>) = %d, want 2", n)
	}
	if all := p.idx.FindAll(tuple.T(i1, i1, i1)); len(all) != 1 {
		t.Fatalf("FindAll(<1, 1, 1>) = %v, want one tuple", all)
	}
}

// TestIndexedRemoveThroughOnePositionHidesEverywhere removes a tuple
// through its position-1 list and checks that templates selecting the
// position-0 and position-2 lists, which still hold its tombstone, do
// not see it.
func TestIndexedRemoveThroughOnePositionHidesEverywhere(t *testing.T) {
	p := newStorePair(t)
	p.out(i1, i1, i1)
	p.out(i1, i2, i1)
	if got, ok := p.find(tuple.T(wc, i1, wc), true); !ok || !got.Equal(tuple.T(i1, i1, i1)) {
		t.Fatalf("remove through position 1 = %v, %v", got, ok)
	}
	for _, tmpl := range []tuple.Tuple{
		tuple.T(i1, wc, wc),
		tuple.T(wc, wc, i1),
		tuple.T(i1, i1, i1),
		tuple.T(wc, i1, wc),
	} {
		p.find(tmpl, false)
		p.check(tmpl)
	}
	if got, ok := p.find(tuple.T(i1, wc, wc), false); !ok || !got.Equal(tuple.T(i1, i2, i1)) {
		t.Fatalf("position-0 lookup after removal = %v, %v", got, ok)
	}
	if _, ok := p.find(tuple.T(wc, wc, i2), false); ok {
		t.Fatal("<*, *, 2> matched; nothing holds 2 in position 2")
	}
}

// TestIndexedRemovalsAcrossPositionsThenCompaction removes through the
// list of each position in turn — leaving tombstones scattered over the
// other lists — until compaction rebuilds the indexes, checking the
// indexed store against the slice engine after every step.
func TestIndexedRemovalsAcrossPositionsThenCompaction(t *testing.T) {
	p := newStorePair(t)
	const n = 4 * compactMin
	for i := 0; i < n; i++ {
		p.out(tuple.Int(int64(i%3)), tuple.Int(int64(i%5)), tuple.Int(int64(i%7)))
	}
	probes := []tuple.Tuple{
		tuple.T(tuple.Int(0), wc, wc),
		tuple.T(wc, tuple.Int(1), wc),
		tuple.T(wc, wc, tuple.Int(2)),
		tuple.T(tuple.Int(1), tuple.Int(1), wc),
		tuple.T(wc, wc, wc),
	}
	compacted := false
	for i := 0; p.idx.Len() > 0; i++ {
		var tmpl tuple.Tuple
		switch i % 4 {
		case 0:
			tmpl = tuple.T(tuple.Int(int64(i%3)), wc, wc)
		case 1:
			tmpl = tuple.T(wc, tuple.Int(int64(i%5)), wc)
		case 2:
			tmpl = tuple.T(wc, wc, tuple.Int(int64(i%7)))
		default:
			tmpl = tuple.T(wc, wc, wc)
		}
		before := len(p.idx.order)
		p.find(tmpl, true)
		if len(p.idx.order) < before {
			compacted = true
		}
		for _, probe := range probes {
			p.find(probe, false)
			p.check(probe)
		}
		if i%9 == 0 {
			// Keep inserting, so lookups walk lists that mix live
			// records, tombstones and post-compaction appends.
			p.out(tuple.Int(int64(i%3)), tuple.Int(int64(i%5)), tuple.Int(int64(i%7)))
		}
	}
	if !compacted {
		t.Fatal("drain never compacted the indexes")
	}
}

// TestIndexedFindAllocatesNothing holds the keyed read path — the
// fast-path rdp of every replica — to zero allocations.
func TestIndexedFindAllocatesNothing(t *testing.T) {
	s := NewIndexedStore()
	for i := 0; i < 1000; i++ {
		s.Insert(tuple.T(tuple.Str("kv"), tuple.Str(fmt.Sprintf("key-%d", i)), tuple.Int(int64(i))), uint64(i+1))
	}
	tmpl := tuple.T(tuple.Str("kv"), tuple.Str("key-500"), tuple.Formal("v"))
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := s.Find(tmpl, false); !ok {
			t.Fatal("key not found")
		}
	}); n != 0 {
		t.Errorf("Find allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Count(tmpl) }); n != 0 {
		t.Errorf("Count allocates %.0f times per call, want 0", n)
	}
}
