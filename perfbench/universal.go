package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/universal"
)

// The universal workload: the paper's wait-free universal construction
// (Algorithm 4 under the Fig. 8 policy) emulating a fetch-and-increment
// counter for uniProcs processes in a closed loop. A deployment is
// sized by invocation count, not time, since each invocation's cost
// grows with the threaded history: one long history made the run's
// latency depend on how the two processes happened to interleave over
// it (its median varied by ±15% from run to run), so a run drives
// several deployments of uniInvocations each instead.
const (
	uniInvocations = 750 // measured invocations per process per deployment
	uniWarm        = 20  // unrecorded warm-up invocations per process
)

var uniProcs = []policy.ProcessID{"p0", "p1"}

type uniInstance struct {
	e       *env
	g       *group
	wfs     []*universal.WaitFree
	n       opCounts
	replies [][]int64
	steps   [][]float64
}

func setupUniversal(_ context.Context, e *env) (instance, error) {
	g, err := newInprocGroup(universal.WaitFreePolicy(uniProcs), e.tr, "", nil, nil)
	if err != nil {
		return nil, err
	}
	u := &uniInstance{e: e, g: g, replies: make([][]int64, len(uniProcs)), steps: make([][]float64, len(uniProcs))}
	for _, p := range uniProcs {
		rs, err := g.client(string(p))
		if err != nil {
			g.stop()
			return nil, err
		}
		wf, err := universal.NewWaitFree(&countingSpace{TupleSpace: rs, n: &u.n}, universal.CounterType{}, p, uniProcs)
		if err != nil {
			g.stop()
			return nil, err
		}
		u.wfs = append(u.wfs, wf)
	}
	return u, nil
}

func (u *uniInstance) drive(ctx context.Context) ([]*recorder, error) {
	recs := make([]*recorder, len(u.wfs))
	var wg sync.WaitGroup
	for i, wf := range u.wfs {
		recs[i] = &recorder{tr: u.e.tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := recs[i]
			for n := range uniWarm + uniInvocations {
				if n == uniWarm {
					rec.from = time.Now()
				}
				sent := time.Now()
				ictx, cancel := context.WithTimeout(ctx, opTimeout)
				rep, err := wf.Invoke(ictx, universal.CounterInc())
				cancel()
				if err == nil {
					v, ok := universal.ReplyValue(rep)
					if !ok {
						err = fmt.Errorf("universal: bad reply % x", rep)
					}
					u.replies[i] = append(u.replies[i], v)
				}
				rec.record(classInvoke, sent, sent, time.Now(), err)
				if n >= uniWarm {
					u.steps[i] = append(u.steps[i], float64(wf.Steps()))
				}
			}
		}()
	}
	wg.Wait()
	return recs, nil
}

func (u *uniInstance) check(ctx context.Context) error {
	ictx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	rep, err := u.wfs[0].Invoke(ictx, universal.CounterRead())
	if err != nil {
		return fmt.Errorf("universal: final read: %w", err)
	}
	final, ok := universal.ReplyValue(rep)
	if !ok {
		return fmt.Errorf("universal: bad final reply % x", rep)
	}
	if err := u.g.quiesce(ctx); err != nil {
		return err
	}
	if err := snapshotsAgree(u.g.snapshots()); err != nil {
		return err
	}
	return checkUniversal(u.replies, final, len(uniProcs)*(uniWarm+uniInvocations))
}

// checkUniversal verifies the counter: the final value equals the
// number of increments invoked, and each process saw strictly
// increasing fetch-and-increment replies.
func checkUniversal(replies [][]int64, final int64, invoked int) error {
	if final != int64(invoked) {
		return fmt.Errorf("universal: counter reads %d after %d increments", final, invoked)
	}
	for p, rs := range replies {
		if len(rs) != invoked/len(replies) {
			return fmt.Errorf("universal: process %d saw %d replies, want %d", p, len(rs), invoked/len(replies))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i] <= rs[i-1] {
				return fmt.Errorf("universal: process %d reply %d is %d after %d", p, i, rs[i], rs[i-1])
			}
		}
	}
	return nil
}

func (u *uniInstance) groups() []*group  { return []*group{u.g} }
func (u *uniInstance) counts() *opCounts { return &u.n }

func (u *uniInstance) layers(m map[string]float64, _ layerCtx) {
	var all []float64
	for _, s := range u.steps {
		all = append(all, s...)
	}
	m["universal.steps_per_invoke"] = mean(all)
}

func (u *uniInstance) stop() { u.g.stop() }

// ladderUniversal records the op stream of the same construction run
// by both processes in turn on a local space: replayed in order from
// the empty state, it reproduces every result, denials included.
func ladderUniversal(uint64) (ladderInput, error) {
	pol := universal.WaitFreePolicy(uniProcs)
	in := ladderInput{pol: pol}
	sp, err := peats.NewSharded(pol, space.EngineIndexed, 1)
	if err != nil {
		return in, err
	}
	var n opCounts
	var wfs []*universal.WaitFree
	for _, p := range uniProcs {
		cs := &countingSpace{TupleSpace: sp.Handle(p), n: &n, record: func(ops []peats.Op) {
			in.units = append(in.units, ladderUnit{invoker: p, ops: ops})
		}}
		wf, err := universal.NewWaitFree(cs, universal.CounterType{}, p, uniProcs)
		if err != nil {
			return in, err
		}
		wfs = append(wfs, wf)
	}
	ctx := context.Background()
	for range 150 {
		for _, wf := range wfs {
			if _, err := wf.Invoke(ctx, universal.CounterInc()); err != nil {
				return in, err
			}
		}
	}
	return in, nil
}
