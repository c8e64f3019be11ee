package space

import (
	"hash/maphash"

	"peats/internal/tuple"
)

// IndexedStore is the production storage engine. Tuples are bucketed by
// arity and, within an arity, indexed on every field position: one hash
// index per position maps the seeded hash of a defined field value to
// the records holding that value there. A template is matched against
// the shortest index list among its defined positions, so tag-plus-key
// shapes — <SEQ, pos, ?> and <ANN, idx, ?> of the universal
// construction, <"kv", key, ?v> of a registry — match in O(key) even
// when every resident tuple shares the tag, and a tag-only template
// such as <PROPOSE, *, *> matches in O(tag bucket) instead of O(space).
// A template with no defined field scans the whole arity bucket.
//
// Insertion order is preserved through the space-assigned sequence
// numbers: each record carries the seq it was inserted with, and every
// index list is append-only and therefore seq-sorted. Every list a
// template can select is a superset of its matches, and a lookup scans
// exactly one of them in seq order, so the first full match it
// encounters is the first match in insertion order — the same tuple
// the reference SliceStore returns, whichever list was chosen. Hash
// collisions only add skipped candidates, never reordered ones
// (tuple.Matches decides every hit), and the indexes are per position,
// so a record appears at most once in any list. The determinism
// contract of Store therefore holds and the space remains a
// deterministic state machine for the BFT substrate.
//
// Removal marks records dead in place (O(1)) and the store compacts
// all index structures once at least half the records are dead, keeping
// amortised cost per operation constant. Removal scans additionally
// trim dead records from the head of the list they walked, so
// queue-like workloads (out/in on one key) do not accumulate tombstones
// in their hot list; the other lists holding a removed record keep its
// tombstone until compaction. Pure reads (Find with remove=false,
// FindAll, Count, ForEach, Snapshot) never mutate anything — the Store
// concurrency contract — so the sharded space can run them under
// shared locks.
type IndexedStore struct {
	live    int
	order   []*irec // global insertion (seq) order; may contain dead records
	buckets map[int]*arityBucket
	seed    maphash.Seed // hashes field values into the position indexes
}

// irec is one stored tuple plus its bookkeeping. The same record is
// shared by the global order list and the per-arity index lists, so
// marking it dead is visible everywhere at once.
type irec struct {
	seq  uint64
	t    tuple.Tuple
	dead bool
}

// arityBucket indexes the records of one arity.
type arityBucket struct {
	live int
	all  []*irec // seq order; for templates with no defined field
	// pos[i] maps the MatchHash of a defined value at field i to the
	// records holding it there, in seq order. The maps are made with
	// the bucket, so the read path never creates one.
	pos []map[uint64][]*irec
}

var _ Store = (*IndexedStore)(nil)

// compactMin is the order-list length below which compaction is not
// worth the rebuild.
const compactMin = 32

// NewIndexedStore returns an empty indexed store.
func NewIndexedStore() *IndexedStore {
	return &IndexedStore{buckets: make(map[int]*arityBucket), seed: maphash.MakeSeed()}
}

// Engine implements Store.
func (s *IndexedStore) Engine() Engine { return EngineIndexed }

// Insert implements Store.
func (s *IndexedStore) Insert(t tuple.Tuple, seq uint64) {
	r := &irec{seq: seq, t: t}
	s.order = append(s.order, r)
	s.index(r)
	s.live++
}

// InsertBatch implements Store. Records for the whole batch share one
// backing allocation and the order list grows once, so index building
// on large snapshots (Restore, checkpoint install) is amortized across
// the batch instead of paying per-tuple allocation and growth.
func (s *IndexedStore) InsertBatch(ts []SeqTuple) {
	if len(ts) == 0 {
		return
	}
	recs := make([]irec, len(ts))
	if need := len(s.order) + len(ts); cap(s.order) < need {
		grown := make([]*irec, len(s.order), need)
		copy(grown, s.order)
		s.order = grown
	}
	for i, st := range ts {
		r := &recs[i]
		r.seq = st.Seq
		r.t = st.T
		s.order = append(s.order, r)
		s.index(r)
	}
	s.live += len(ts)
}

// index files r into its arity bucket and into the position index of
// each of its defined fields. Undefined fields (of non-entries
// installed by Restore) get no index entry: a non-entry can never match
// a template, so keyed lookups may skip it.
func (s *IndexedStore) index(r *irec) {
	arity := r.t.Arity()
	b := s.buckets[arity]
	if b == nil {
		b = &arityBucket{pos: make([]map[uint64][]*irec, arity)}
		for i := range b.pos {
			b.pos[i] = make(map[uint64][]*irec)
		}
		s.buckets[arity] = b
	}
	b.all = append(b.all, r)
	for i, m := range b.pos {
		if h, ok := r.t.Field(i).MatchHash(s.seed); ok {
			m[h] = append(m[h], r)
		}
	}
	b.live++
}

// candidates returns the one index list to scan for tmpl: the shortest
// of the arity bucket and the position lists of the template's defined
// fields (empty at once if any of them holds no record). pos is the
// position of the chosen list and h its hash, or pos = -1 for the
// bucket list.
func (s *IndexedStore) candidates(tmpl tuple.Tuple) (b *arityBucket, list []*irec, pos int, h uint64) {
	b = s.buckets[tmpl.Arity()]
	if b == nil || b.live == 0 {
		return nil, nil, -1, 0
	}
	list, pos = b.all, -1
	for i, m := range b.pos {
		hi, ok := tmpl.Field(i).MatchHash(s.seed)
		if !ok {
			continue
		}
		l := m[hi]
		if len(l) == 0 {
			return b, nil, i, hi
		}
		if len(l) < len(list) {
			list, pos, h = l, i, hi
		}
	}
	return b, list, pos, h
}

// Find implements Store. The remove=false path is a pure scan — no
// trimming, no compaction — per the Store concurrency contract.
func (s *IndexedStore) Find(tmpl tuple.Tuple, remove bool) (tuple.Tuple, uint64, bool) {
	b, list, pos, h := s.candidates(tmpl)
	if b == nil {
		return tuple.Tuple{}, 0, false
	}
	if !remove {
		for _, r := range list {
			if !r.dead && tuple.Matches(r.t, tmpl) {
				return r.t, r.seq, true
			}
		}
		return tuple.Tuple{}, 0, false
	}
	kept, t, seq, ok := s.remove(list, tmpl)
	switch {
	case pos < 0:
		b.all = kept
	case len(kept) == 0:
		delete(b.pos[pos], h)
	default:
		b.pos[pos][h] = kept
	}
	if ok {
		s.maybeCompact()
	}
	return t, seq, ok
}

// remove walks list in seq order for the first record matching tmpl and
// marks it dead. It returns the list with any contiguous dead head
// trimmed off.
func (s *IndexedStore) remove(list []*irec, tmpl tuple.Tuple) (kept []*irec, t tuple.Tuple, seq uint64, ok bool) {
	head := 0
	for i, r := range list {
		if r.dead {
			if i == head {
				head++
			}
			continue
		}
		if !tuple.Matches(r.t, tmpl) {
			continue
		}
		t, seq = r.t, r.seq
		r.dead = true
		// Release the tuple immediately: records can share a
		// batch-allocated backing array (InsertBatch), so a dead
		// record must not pin its payload until the whole batch
		// compacts away.
		r.t = tuple.Tuple{}
		s.live--
		s.buckets[t.Arity()].live--
		if i == head {
			head++
		}
		return list[head:], t, seq, true
	}
	return list[head:], tuple.Tuple{}, 0, false
}

// FindAll implements Store.
func (s *IndexedStore) FindAll(tmpl tuple.Tuple) []SeqTuple {
	_, list, _, _ := s.candidates(tmpl)
	var out []SeqTuple
	for _, r := range list {
		if !r.dead && tuple.Matches(r.t, tmpl) {
			out = append(out, SeqTuple{Seq: r.seq, T: r.t})
		}
	}
	return out
}

// Count implements Store.
func (s *IndexedStore) Count(tmpl tuple.Tuple) int {
	_, list, _, _ := s.candidates(tmpl)
	n := 0
	for _, r := range list {
		if !r.dead && tuple.Matches(r.t, tmpl) {
			n++
		}
	}
	return n
}

// Len implements Store.
func (s *IndexedStore) Len() int { return s.live }

// ForEach implements Store.
func (s *IndexedStore) ForEach(fn func(t tuple.Tuple, seq uint64) bool) {
	for _, r := range s.order {
		if r.dead {
			continue
		}
		if !fn(r.t, r.seq) {
			return
		}
	}
}

// Iter implements Store.
func (s *IndexedStore) Iter() func() (SeqTuple, bool) {
	i := 0
	return func() (SeqTuple, bool) {
		for i < len(s.order) {
			r := s.order[i]
			i++
			if !r.dead {
				return SeqTuple{Seq: r.seq, T: r.t}, true
			}
		}
		return SeqTuple{}, false
	}
}

// Snapshot implements Store.
func (s *IndexedStore) Snapshot() []SeqTuple {
	cp := make([]SeqTuple, 0, s.live)
	for _, r := range s.order {
		if !r.dead {
			cp = append(cp, SeqTuple{Seq: r.seq, T: r.t})
		}
	}
	return cp
}

// Reset implements Store.
func (s *IndexedStore) Reset() {
	s.live = 0
	s.order = nil
	s.buckets = make(map[int]*arityBucket)
}

// maybeCompact rebuilds every index structure without the dead records
// once they outnumber the live ones. Relative seq order is preserved,
// so observable behaviour is unchanged.
func (s *IndexedStore) maybeCompact() {
	if len(s.order) < compactMin || s.live*2 >= len(s.order) {
		return
	}
	order := make([]*irec, 0, s.live)
	for _, r := range s.order {
		if !r.dead {
			order = append(order, r)
		}
	}
	s.order = order
	s.buckets = make(map[int]*arityBucket)
	for _, r := range order {
		s.index(r)
	}
}
