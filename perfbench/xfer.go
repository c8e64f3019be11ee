package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"peats/internal/partition"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/tuple"
)

// The xfer workload: two f=1 groups of a partitioned deployment, and
// transfers between accounts <name, balance> keyed on field 0. Each
// sender owns its own accounts, half in each group; about xferCross of
// its transfers pair accounts of different groups and run the
// BFT-agreed two-phase commit.
const (
	xferSenders  = 2
	xferPerGroup = 16 // accounts per sender per group
	xferRate     = 100 // transfers per second per sender
	xferCross    = 0.2
	xferInitial  = 1000
	xferMaxMove  = 50
	xferGroups   = 2
)

var xferMaster = []byte("perfbench-partitions")

type account struct {
	name  string
	group int
	bal   int64
}

func acctTuple(name string, bal int64) tuple.Tuple {
	return tuple.T(tuple.Str(name), tuple.Int(bal))
}

// xferAccounts names sender d's accounts: the first xferPerGroup names
// routing to each group.
func xferAccounts(d int) []account {
	var accts []account
	have := make([]int, xferGroups)
	for i := 0; len(accts) < xferGroups*xferPerGroup; i++ {
		name := fmt.Sprintf("acct-%d-%d", d, i)
		g := space.RouteEntry(acctTuple(name, 0), xferGroups)
		if have[g] < xferPerGroup {
			have[g]++
			accts = append(accts, account{name: name, group: g, bal: xferInitial})
		}
	}
	return accts
}

// xferGen generates one sender's transfers and tracks its balances.
type xferGen struct {
	rng     *rand.Rand
	accts   []account
	byGroup [xferGroups][]int
}

func newXferGen(seed uint64, d int) *xferGen {
	g := &xferGen{rng: rand.New(rand.NewPCG(seed, uint64(100+d))), accts: xferAccounts(d)}
	for i, a := range g.accts {
		g.byGroup[a.group] = append(g.byGroup[a.group], i)
	}
	return g
}

// transfer is one generated unit: move amount from account a to b.
type transfer struct {
	a, b   int
	amount int64
	cross  bool
}

func (g *xferGen) next() transfer {
	cross := g.rng.Float64() < xferCross
	ga := g.rng.IntN(xferGroups)
	gb := ga
	if cross {
		gb = (ga + 1 + g.rng.IntN(xferGroups-1)) % xferGroups
	}
	a := g.byGroup[ga][g.rng.IntN(xferPerGroup)]
	b := a
	for b == a {
		b = g.byGroup[gb][g.rng.IntN(xferPerGroup)]
	}
	amount := 1 + g.rng.Int64N(xferMaxMove)
	if g.accts[a].bal < amount {
		a, b = b, a
	}
	amount = min(amount, g.accts[a].bal)
	return transfer{a: a, b: b, amount: amount, cross: cross}
}

// ops renders t against the current balances as the 4-op unit.
func (g *xferGen) ops(t transfer) []peats.Op {
	a, b := g.accts[t.a], g.accts[t.b]
	return []peats.Op{
		peats.InpOp(acctTuple(a.name, a.bal)),
		peats.InpOp(acctTuple(b.name, b.bal)),
		peats.OutOp(acctTuple(a.name, a.bal-t.amount)),
		peats.OutOp(acctTuple(b.name, b.bal+t.amount)),
	}
}

func (g *xferGen) apply(t transfer) {
	g.accts[t.a].bal -= t.amount
	g.accts[t.b].bal += t.amount
}

type xferInstance struct {
	e       *env
	gs      []*group
	senders []*partition.Space
	gens    []*xferGen
	n       opCounts
	crosses atomic.Int64
}

func setupXfer(ctx context.Context, e *env) (instance, error) {
	topo := &partition.Topology{}
	for gi := range xferGroups {
		spec := partition.GroupSpec{ID: fmt.Sprintf("g%d", gi), F: faults}
		for j := range 3*faults + 1 {
			spec.Replicas = append(spec.Replicas, partition.ReplicaSpec{ID: fmt.Sprintf("r%d", j)})
		}
		topo.Groups = append(topo.Groups, spec)
	}
	dir := topo.Directory(xferMaster)
	x := &xferInstance{e: e}
	for _, spec := range topo.Groups {
		g, err := newInprocGroup(policy.AllowAll(), e.tr, spec.ID, dir, xferMaster)
		if err != nil {
			x.stop()
			return nil, err
		}
		x.gs = append(x.gs, g)
	}
	loader, err := x.handle("loader")
	for d := 0; err == nil && d < xferSenders; d++ {
		gen := newXferGen(e.seed, d)
		x.gens = append(x.gens, gen)
		for _, a := range gen.accts {
			if _, err = submit(ctx, loader, peats.OutOp(acctTuple(a.name, a.bal))); err != nil {
				break
			}
		}
		var h *partition.Space
		if h, err = x.handle(fmt.Sprintf("d%d", d)); err == nil {
			x.senders = append(x.senders, h)
		}
	}
	if err != nil {
		x.stop()
		return nil, err
	}
	return x, nil
}

// handle returns a partition-routing space for identity id, with one
// client per group.
func (x *xferInstance) handle(id string) (*partition.Space, error) {
	groups := make([]partition.Group, len(x.gs))
	for i, g := range x.gs {
		groups[i] = partition.Group{ID: g.id, Client: g.cluster.Client(id)}
	}
	return partition.NewSpace(groups)
}

func (x *xferInstance) drive(ctx context.Context) ([]*recorder, error) {
	start := time.Now().Add(leadIn)
	from := start.Add(warmup)
	end := from.Add(x.e.window)
	recs := make([]*recorder, len(x.senders))
	var wg sync.WaitGroup
	for d, h := range x.senders {
		recs[d] = &recorder{from: from, tr: x.e.tr}
		gen := x.gens[d]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The senders' schedules are spread evenly over one interval.
			first := start.Add(time.Duration(d) * time.Second / xferRate / xferSenders)
			openLoop(realClock{}, first, end, time.Second/xferRate, recs[d], func(int) (opClass, error) {
				t := gen.next()
				c := classWrite
				if t.cross {
					c = classCross
					x.crosses.Add(1)
				}
				unit := gen.ops(t)
				x.n.add(unit)
				_, err := submit(ctx, h, unit...)
				if err == nil {
					gen.apply(t)
				} else if !errors.Is(err, peats.ErrAborted) {
					err = errors.Join(err, x.resync(ctx, h, gen, t))
				}
				return c, err
			})
		}()
	}
	wg.Wait()
	return recs, nil
}

// resync re-reads both balances of a transfer whose outcome is unknown
// (a transport error or timeout), so later units start from the truth.
func (x *xferInstance) resync(ctx context.Context, h *partition.Space, gen *xferGen, t transfer) error {
	for _, i := range []int{t.a, t.b} {
		res, err := submit(ctx, h, peats.RdpOp(tuple.T(tuple.Str(gen.accts[i].name), tuple.Formal("bal"))))
		if err != nil {
			return err
		}
		if !res[0].Found {
			return fmt.Errorf("xfer: account %s missing", gen.accts[i].name)
		}
		gen.accts[i].bal, _ = res[0].Tuple.Field(1).IntValue()
	}
	return nil
}

func (x *xferInstance) check(ctx context.Context) error {
	perGroup := make([][]tuple.Tuple, len(x.gs))
	for i, g := range x.gs {
		if err := g.quiesce(ctx); err != nil {
			return err
		}
		if err := snapshotsAgree(g.snapshots()); err != nil {
			return fmt.Errorf("xfer: group %s: %w", g.id, err)
		}
		perGroup[i] = g.services[0].Space().Snapshot()
	}
	var accts []account
	for _, gen := range x.gens {
		accts = append(accts, gen.accts...)
	}
	return checkXfer(accts, perGroup)
}

// checkXfer verifies the xfer end state: every account resident
// exactly once, in its owning group, at the balance its sender
// tracked, with the total balance conserved.
func checkXfer(accts []account, perGroup [][]tuple.Tuple) error {
	want := make(map[string]account, len(accts))
	for _, a := range accts {
		want[a.name] = a
	}
	seen := make(map[string]bool, len(accts))
	var total int64
	for gi, ts := range perGroup {
		for _, t := range ts {
			name, okN := t.Field(0).StrValue()
			bal, okB := t.Field(1).IntValue()
			a, known := want[name]
			if t.Arity() != 2 || !okN || !okB || !known {
				return fmt.Errorf("xfer: unexpected tuple %v in group %d", t, gi)
			}
			if seen[name] {
				return fmt.Errorf("xfer: account %s resident twice", name)
			}
			seen[name] = true
			if gi != a.group {
				return fmt.Errorf("xfer: account %s in group %d, owned by group %d", name, gi, a.group)
			}
			if bal != a.bal {
				return fmt.Errorf("xfer: account %s holds %d, want %d", name, bal, a.bal)
			}
			total += bal
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("xfer: %d of %d accounts resident", len(seen), len(want))
	}
	if total != int64(len(accts))*xferInitial {
		return fmt.Errorf("xfer: total balance %d, want %d", total, int64(len(accts))*xferInitial)
	}
	return nil
}

func (x *xferInstance) groups() []*group  { return x.gs }
func (x *xferInstance) counts() *opCounts { return &x.n }

func (x *xferInstance) layers(m map[string]float64, c layerCtx) {
	prepares := counterDelta(c.before, c.after, "peats_2pc_prepares_total", "r0")
	m["partition.prepares_per_cross"] = ratio(prepares, float64(x.crosses.Load()))
	m["partition.abort_ratio"] = ratio(counterDelta(c.before, c.after, "peats_2pc_aborts_total", "r0"), prepares)
}

func (x *xferInstance) stop() {
	for _, g := range x.gs {
		g.stop()
	}
}

// ladderXfer generates both senders' transfers, interleaved, from the
// initial balances.
func ladderXfer(seed uint64) (ladderInput, error) {
	in := ladderInput{pol: policy.AllowAll()}
	var gens []*xferGen
	for d := range xferSenders {
		gen := newXferGen(seed, d)
		gens = append(gens, gen)
		for _, a := range gen.accts {
			in.initial = append(in.initial, acctTuple(a.name, a.bal))
		}
	}
	for range 400 {
		for d, gen := range gens {
			t := gen.next()
			in.units = append(in.units, ladderUnit{invoker: policy.ProcessID(fmt.Sprintf("d%d", d)), ops: gen.ops(t)})
			gen.apply(t)
		}
	}
	return in, nil
}
