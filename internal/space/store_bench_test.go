package space_test

import (
	"fmt"
	"testing"

	"peats/internal/bench"
	"peats/internal/space"
	"peats/internal/tuple"
)

// Store benchmarks: slice vs indexed at 10 / 100 / 10k resident tuples,
// reporting ns/op for rdp, inp and cas on two store shapes:
//
//   - tag: mixed arities under 17 tags, probed by a template whose
//     first field (the tag) is defined — the shape of the consensus
//     objects in this repository;
//   - keyed: every tuple shares the tag "kv" and carries a distinct key
//     in field 1, probed by <"kv", key, ?v> for the key inserted last —
//     the registry and universal-construction shape, which a field-0
//     index alone would serve by scanning the whole tag bucket.
//
// Sub-benchmarks are named engine/n=size for the tag shape and
// engine/keyed/n=size for the keyed one.
//
//	go test ./internal/space -bench=BenchmarkStore -benchmem

func storeEngines() []struct {
	name string
	mk   func() space.Store
} {
	return []struct {
		name string
		mk   func() space.Store
	}{
		{"slice", func() space.Store { return space.NewSliceStore() }},
		{"indexed", func() space.Store { return space.NewIndexedStore() }},
	}
}

var storeSizes = []int{10, 100, 10000}

// kvFill stores n-1 tuples <"kv", "key-i", i> followed by the needle
// <"kv", "needle", 0> — the keyed counterpart of bench.StoreFill — and
// returns the next free sequence number.
func kvFill(st space.Store, n int) uint64 {
	seq := uint64(0)
	for i := 0; i < n-1; i++ {
		seq++
		st.Insert(tuple.T(tuple.Str("kv"), tuple.Str(fmt.Sprintf("key-%d", i)), tuple.Int(int64(i))), seq)
	}
	seq++
	st.Insert(tuple.T(tuple.Str("kv"), tuple.Str("needle"), tuple.Int(0)), seq)
	return seq + 1
}

// storeShape is one of the benchmarked store shapes: how to fill a
// store, a template matching its needle (and the needle), and a
// template no resident tuple matches (and an entry for it).
type storeShape struct {
	name            string // sub-benchmark infix, "" for the tag shape
	fill            func(st space.Store, n int) uint64
	hit, hitEntry   tuple.Tuple
	miss, missEntry tuple.Tuple
}

func storeShapes() []storeShape {
	kv := tuple.Str("kv")
	return []storeShape{
		{
			fill:      bench.StoreFill,
			hit:       tuple.T(tuple.Str("needle"), tuple.Any()),
			hitEntry:  tuple.T(tuple.Str("needle"), tuple.Int(0)),
			miss:      tuple.T(tuple.Str("absent"), tuple.Any()),
			missEntry: tuple.T(tuple.Str("absent"), tuple.Int(1)),
		},
		{
			name:      "keyed/",
			fill:      kvFill,
			hit:       tuple.T(kv, tuple.Str("needle"), tuple.Formal("v")),
			hitEntry:  tuple.T(kv, tuple.Str("needle"), tuple.Int(0)),
			miss:      tuple.T(kv, tuple.Str("absent"), tuple.Formal("v")),
			missEntry: tuple.T(kv, tuple.Str("absent"), tuple.Int(1)),
		},
	}
}

// runStoreBench runs op on a freshly filled store for every shape,
// engine and size; op gets the next free sequence number.
func runStoreBench(b *testing.B, op func(b *testing.B, st space.Store, sh storeShape, seq uint64)) {
	for _, sh := range storeShapes() {
		for _, eng := range storeEngines() {
			for _, size := range storeSizes {
				b.Run(fmt.Sprintf("%s/%sn=%d", eng.name, sh.name, size), func(b *testing.B) {
					st := eng.mk()
					seq := sh.fill(st, size)
					b.ResetTimer()
					op(b, st, sh, seq)
				})
			}
		}
	}
}

func BenchmarkStoreRdp(b *testing.B) {
	runStoreBench(b, func(b *testing.B, st space.Store, sh storeShape, _ uint64) {
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.Find(sh.hit, false); !ok {
				b.Fatal("needle not found")
			}
		}
	})
}

func BenchmarkStoreInp(b *testing.B) {
	runStoreBench(b, func(b *testing.B, st space.Store, sh storeShape, seq uint64) {
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.Find(sh.hit, true); !ok {
				b.Fatal("needle not found")
			}
			st.Insert(sh.hitEntry, seq)
			seq++
		}
	})
}

func BenchmarkStoreCas(b *testing.B) {
	// cas on an absent tuple: the read always misses (full candidate
	// scan) and the insert runs every iteration; inp cleans up to keep
	// the resident size stable.
	runStoreBench(b, func(b *testing.B, st space.Store, sh storeShape, seq uint64) {
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.Find(sh.miss, false); !ok {
				st.Insert(sh.missEntry, seq)
				seq++
			}
			if _, _, ok := st.Find(sh.miss, true); !ok {
				b.Fatal("cas entry vanished")
			}
		}
	})
}

// BenchmarkStoreInsertBatch compares installing a 10k-tuple snapshot
// via per-tuple Insert against one InsertBatch call — the Restore /
// checkpoint-install path.
func BenchmarkStoreInsertBatch(b *testing.B) {
	const n = 10000
	tuples := make([]space.SeqTuple, n)
	for i := range tuples {
		tuples[i] = space.SeqTuple{
			Seq: uint64(i + 1),
			T:   tuple.T(tuple.Str(fmt.Sprintf("tag%d", i%17)), tuple.Int(int64(i))),
		}
	}
	for _, eng := range storeEngines() {
		b.Run(eng.name+"/insert", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := eng.mk()
				for _, st2 := range tuples {
					st.Insert(st2.T, st2.Seq)
				}
			}
		})
		b.Run(eng.name+"/insertbatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := eng.mk()
				st.InsertBatch(tuples)
			}
		})
	}
}

// TestInsertBatchEquivalent holds InsertBatch to the Store contract:
// observationally identical to per-tuple Insert on both engines.
func TestInsertBatchEquivalent(t *testing.T) {
	tuples := make([]space.SeqTuple, 200)
	for i := range tuples {
		tuples[i] = space.SeqTuple{
			Seq: uint64(i + 2),
			T:   tuple.T(tuple.Str(fmt.Sprintf("tag%d", i%7)), tuple.Int(int64(i))),
		}
	}
	for _, eng := range storeEngines() {
		one, batch := eng.mk(), eng.mk()
		one.Insert(tuple.T(tuple.Str("pre")), 1)
		batch.Insert(tuple.T(tuple.Str("pre")), 1)
		for _, tu := range tuples {
			one.Insert(tu.T, tu.Seq)
		}
		batch.InsertBatch(tuples)
		if one.Len() != batch.Len() {
			t.Fatalf("%s: Len %d vs %d", eng.name, one.Len(), batch.Len())
		}
		a, b := one.Snapshot(), batch.Snapshot()
		for i := range a {
			if a[i].Seq != b[i].Seq || a[i].T.String() != b[i].T.String() {
				t.Fatalf("%s: snapshot diverges at %d: %v vs %v", eng.name, i, a[i], b[i])
			}
		}
		tmpl := tuple.T(tuple.Str("tag3"), tuple.Any())
		g1, s1, ok1 := one.Find(tmpl, true)
		g2, s2, ok2 := batch.Find(tmpl, true)
		if ok1 != ok2 || s1 != s2 || g1.String() != g2.String() {
			t.Fatalf("%s: Find diverges: %v/%v vs %v/%v", eng.name, g1, ok1, g2, ok2)
		}
	}
}

// TestIndexedSpeedupAtScale is the acceptance check for the engine: at
// 10k resident tuples the indexed store must beat the slice store by at
// least 5x on rdp and inp of a keyed template, both for a tag template
// over mixed tags and for <"kv", key, ?v> over tuples that all share
// the tag. It uses testing.Benchmark so the claim is enforced by
// `go test`, not just observable via -bench.
func TestIndexedSpeedupAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n = 10000
	for _, sh := range storeShapes() {
		speedupAtScale(t, sh, n)
	}
}

func speedupAtScale(t *testing.T, sh storeShape, n int) {
	tmpl, entry := sh.hit, sh.hitEntry
	measure := func(mk func() space.Store, remove bool) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			st := mk()
			seq := sh.fill(st, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := st.Find(tmpl, remove); !ok {
					b.Fatal("needle not found")
				}
				if remove {
					st.Insert(entry, seq)
					seq++
				}
			}
		})
		return float64(res.NsPerOp())
	}

	for _, op := range []struct {
		name   string
		remove bool
	}{{"rdp", false}, {"inp", true}} {
		slice := measure(func() space.Store { return space.NewSliceStore() }, op.remove)
		indexed := measure(func() space.Store { return space.NewIndexedStore() }, op.remove)
		speedup := slice / indexed
		t.Logf("%s %s at n=%d: slice %.0f ns/op, indexed %.0f ns/op, speedup %.1fx",
			op.name, tmpl, n, slice, indexed, speedup)
		if speedup < 5 {
			t.Errorf("%s %s speedup %.1fx, want ≥ 5x", op.name, tmpl, speedup)
		}
	}
}
