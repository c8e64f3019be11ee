package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"peats/internal/bft"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
)

// The kv workload: a keyed registry of kvKeys resident <"kv", key, ver>
// tuples sharing field 0, so every lookup scans one large bucket. One
// sender reads single keys on the read-only fast path; the other
// pipelines InpOp+OutOp version bumps through SubmitAsync/Flush.
const (
	kvKeys       = 10000
	kvReadRate   = 300 // reads per second
	kvUpdateRate = 100 // update units per second
	kvFlushMax   = 32  // update units per flush at most
	kvPrefill    = 250 // outs per prefill flush
)

var errMiss = errors.New("no matching tuple")

func kvTuple(key int, ver int64) tuple.Tuple {
	return tuple.T(tuple.Str("kv"), tuple.Int(int64(key)), tuple.Int(ver))
}

func kvReadOp(key int) peats.Op {
	return peats.RdpOp(tuple.T(tuple.Str("kv"), tuple.Int(int64(key)), tuple.Formal("v")))
}

func kvUpdate(key int, ver int64) []peats.Op {
	return []peats.Op{peats.InpOp(kvTuple(key, ver)), peats.OutOp(kvTuple(key, ver+1))}
}

// kvGen generates the read and update key streams. Any kvFlushMax
// consecutive update keys are distinct, so a flush never holds two
// updates of one key.
type kvGen struct {
	reads, writes *rand.Rand
	recent        []int
}

func newKVGen(seed uint64) *kvGen {
	return &kvGen{reads: rand.New(rand.NewPCG(seed, 1)), writes: rand.New(rand.NewPCG(seed, 2))}
}

func (g *kvGen) readKey() int { return g.reads.IntN(kvKeys) }

func (g *kvGen) updateKey() int {
	for {
		k := g.writes.IntN(kvKeys)
		if slices.Contains(g.recent, k) {
			continue
		}
		if len(g.recent) == kvFlushMax-1 {
			g.recent = g.recent[1:]
		}
		g.recent = append(g.recent, k)
		return k
	}
}

type kvInstance struct {
	e              *env
	g              *group
	reader, writer *bft.RemoteSpace
	gen            *kvGen
	ver            []int64 // current version per key; the writer owns it while driving
	n              opCounts
}

func setupKV(ctx context.Context, e *env) (instance, error) {
	g, err := newInprocGroup(policy.AllowAll(), e.tr, "", nil, nil)
	if err != nil {
		return nil, err
	}
	k := &kvInstance{e: e, g: g, gen: newKVGen(e.seed), ver: make([]int64, kvKeys)}
	loader, err := g.client("loader")
	if err == nil {
		err = prefill(ctx, loader, kvKeys, func(i int) tuple.Tuple { return kvTuple(i, 0) })
	}
	if err == nil {
		k.reader, err = g.client("reader")
	}
	if err == nil {
		k.writer, err = g.client("writer")
	}
	if err != nil {
		g.stop()
		return nil, err
	}
	return k, nil
}

// prefill outs n generated tuples through pipelined flushes.
func prefill(ctx context.Context, rs *bft.RemoteSpace, n int, gen func(i int) tuple.Tuple) error {
	for lo := 0; lo < n; lo += kvPrefill {
		var pend []*bft.PendingSubmit
		for i := lo; i < min(lo+kvPrefill, n); i++ {
			pend = append(pend, rs.SubmitAsync(peats.OutOp(gen(i))))
		}
		if err := flush(ctx, rs); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		for _, p := range pend {
			if _, err := p.Results(); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
		}
	}
	return nil
}

func flush(ctx context.Context, rs *bft.RemoteSpace) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return rs.Flush(ctx)
}

func (k *kvInstance) drive(ctx context.Context) ([]*recorder, error) {
	start := time.Now().Add(leadIn)
	from := start.Add(warmup)
	end := from.Add(k.e.window)
	reads := &recorder{from: from, tr: k.e.tr}
	updates := &recorder{from: from, tr: k.e.tr}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		openLoop(realClock{}, start, end, time.Second/kvReadRate, reads, func(int) (opClass, error) {
			op := kvReadOp(k.gen.readKey())
			k.n.add([]peats.Op{op})
			res, err := submit(ctx, k.reader, op)
			if err == nil && !res[0].Found {
				err = errMiss
			}
			return classRead, err
		})
	}()
	go func() {
		defer wg.Done()
		// Half a read interval out of phase with the reads, so the two
		// senders never send at the same instant.
		openLoopBatched(realClock{}, start.Add(time.Second/kvReadRate/2), end, time.Second/kvUpdateRate, kvFlushMax, classWrite, updates,
			func(lo, hi int) []error {
				keys := make([]int, 0, hi-lo)
				pend := make([]*bft.PendingSubmit, 0, hi-lo)
				for range hi - lo {
					key := k.gen.updateKey()
					unit := kvUpdate(key, k.ver[key])
					k.n.add(unit)
					keys = append(keys, key)
					pend = append(pend, k.writer.SubmitAsync(unit...))
				}
				ferr := flush(ctx, k.writer)
				errs := make([]error, len(pend))
				for j, p := range pend {
					if ferr != nil {
						errs[j] = ferr
						continue
					}
					if _, errs[j] = p.Results(); errs[j] == nil {
						k.ver[keys[j]]++
					}
				}
				return errs
			})
	}()
	wg.Wait()
	return []*recorder{reads, updates}, nil
}

func (k *kvInstance) check(ctx context.Context) error {
	if err := k.g.quiesce(ctx); err != nil {
		return err
	}
	return checkKV(k.ver, k.g.services[0].Space().Snapshot(), k.g.snapshots())
}

// checkKV verifies the kv end state: every key present exactly once at
// its last written version, nothing else resident, and every replica's
// snapshot byte-identical.
func checkKV(want []int64, tuples []tuple.Tuple, snaps [][]byte) error {
	seen := make([]bool, len(want))
	for _, t := range tuples {
		name, _ := t.Field(0).StrValue()
		key, okK := t.Field(1).IntValue()
		ver, okV := t.Field(2).IntValue()
		if t.Arity() != 3 || name != "kv" || !okK || !okV || key < 0 || key >= int64(len(want)) {
			return fmt.Errorf("kv: unexpected resident tuple %v", t)
		}
		if seen[key] {
			return fmt.Errorf("kv: key %d resident twice", key)
		}
		seen[key] = true
		if ver != want[key] {
			return fmt.Errorf("kv: key %d at version %d, last written %d", key, ver, want[key])
		}
	}
	for key, ok := range seen {
		if !ok {
			return fmt.Errorf("kv: key %d missing", key)
		}
	}
	return snapshotsAgree(snaps)
}

func (k *kvInstance) groups() []*group                    { return []*group{k.g} }
func (k *kvInstance) counts() *opCounts                   { return &k.n }
func (k *kvInstance) layers(map[string]float64, layerCtx) {}
func (k *kvInstance) stop()                               { k.g.stop() }

// ladderKV generates the kv stream as the senders interleave it: three
// reads per update unit, from the prefilled state.
func ladderKV(seed uint64) (ladderInput, error) {
	in := ladderInput{pol: policy.AllowAll()}
	for i := range kvKeys {
		in.initial = append(in.initial, kvTuple(i, 0))
	}
	gen := newKVGen(seed)
	ver := make([]int64, kvKeys)
	for range 200 {
		for range kvReadRate / kvUpdateRate {
			in.units = append(in.units, ladderUnit{invoker: "reader", ops: []peats.Op{kvReadOp(gen.readKey())}})
		}
		key := gen.updateKey()
		in.units = append(in.units, ladderUnit{invoker: "writer", ops: kvUpdate(key, ver[key])})
		ver[key]++
	}
	return in, nil
}
