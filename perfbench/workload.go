package main

import (
	"context"
	"sync/atomic"
	"time"

	"peats/internal/metrics"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/tuple"
)

// workload is one set of generated inputs and the deployment it runs
// against. Everything it sends is a pure function of the seed.
type workload struct {
	name string
	// setup builds the deployment and its resident state.
	setup func(ctx context.Context, e *env) (instance, error)
	// ladder generates the ops the isolated per-layer ladder replays.
	ladder func(seed uint64) (ladderInput, error)
	// span is how much of the window each deployment of an untraced run
	// drives: a window w is split equally between max(1, w/span) fresh
	// deployments whose samples are pooled, since latency varies by up
	// to ±15% from one deployment to the next on a shared virtual
	// machine.
	span time.Duration
	// stationary holds when the ops' latency does not drift over a
	// drive, so the ops clear of steal are a fair sample of all of
	// them and the latency percentiles are taken over those (see
	// steadiest). It holds for the fixed-rate open loops. The
	// universal invocations slow down as the history grows, so leaving
	// out those a steal burst hit would tilt the sample towards the
	// later, slower ones: in one run it raised p50_ms by 9% where every
	// op gave 2.37 ms.
	stationary bool
}

// deployments is how many fresh deployments an untraced run of the
// window drives.
func (wl *workload) deployments(window time.Duration) int {
	return max(1, int(window/wl.span))
}

// env is what a workload instance is built with.
type env struct {
	seed   uint64
	tr     *tracer       // nil in untraced phases
	dir    string        // scratch directory for data directories
	window time.Duration // measurement window
}

// instance is a running deployment of one workload.
type instance interface {
	// drive runs the load: warm-up, then the measurement window (or
	// the measured invocation count); it returns one recorder per
	// sender goroutine.
	drive(ctx context.Context) ([]*recorder, error)
	// check quiesces the deployment and verifies its end state.
	check(ctx context.Context) error
	// groups lists the replica groups, for counters.
	groups() []*group
	// counts reports the submissions the senders issued.
	counts() *opCounts
	// layers adds the workload's own in-situ per-layer metrics.
	layers(m map[string]float64, c layerCtx)
	stop()
}

// warmup precedes every open-loop measurement window: ops due in it
// run but are not recorded.
const warmup = time.Second

// leadIn is the gap between building a schedule and its first due op.
const leadIn = 20 * time.Millisecond

// opTimeout bounds one submission; a timeout counts as a failure.
const opTimeout = 10 * time.Second

// opCounts counts what the senders submitted: read-only submissions
// (fast-path candidates) and ordered ones.
type opCounts struct {
	readOnly atomic.Int64
	ordered  atomic.Int64
}

func (c *opCounts) add(ops []peats.Op) {
	if readOnly(ops) {
		c.readOnly.Add(1)
	} else {
		c.ordered.Add(1)
	}
}

// readOnly reports whether a submission of ops takes the read-only
// fast path.
func readOnly(ops []peats.Op) bool {
	for _, op := range ops {
		if !op.ReadOnly() {
			return false
		}
	}
	return true
}

// countingSpace counts the submissions an algorithm issues through a
// TupleSpace; with a recording hook it also keeps the op stream.
type countingSpace struct {
	peats.TupleSpace
	n      *opCounts
	record func(ops []peats.Op)
}

func (s *countingSpace) note(ops ...peats.Op) {
	s.n.add(ops)
	if s.record != nil {
		s.record(ops)
	}
}

func (s *countingSpace) Submit(ctx context.Context, ops ...peats.Op) ([]peats.Result, error) {
	s.note(ops...)
	return s.TupleSpace.Submit(ctx, ops...)
}

func (s *countingSpace) Out(ctx context.Context, entry tuple.Tuple) error {
	s.note(peats.OutOp(entry))
	return s.TupleSpace.Out(ctx, entry)
}

func (s *countingSpace) Rdp(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, bool, error) {
	s.note(peats.RdpOp(tmpl))
	return s.TupleSpace.Rdp(ctx, tmpl)
}

func (s *countingSpace) Inp(ctx context.Context, tmpl tuple.Tuple) (tuple.Tuple, bool, error) {
	s.note(peats.InpOp(tmpl))
	return s.TupleSpace.Inp(ctx, tmpl)
}

func (s *countingSpace) Cas(ctx context.Context, tmpl, entry tuple.Tuple) (bool, tuple.Tuple, error) {
	s.note(peats.CasOp(tmpl, entry))
	return s.TupleSpace.Cas(ctx, tmpl, entry)
}

func (s *countingSpace) RdAll(ctx context.Context, tmpl tuple.Tuple) ([]tuple.Tuple, error) {
	s.note(peats.RdAllOp(tmpl))
	return s.TupleSpace.RdAll(ctx, tmpl)
}

// submit runs one submission with the per-op timeout.
func submit(ctx context.Context, ts peats.TupleSpace, ops ...peats.Op) ([]peats.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return ts.Submit(ctx, ops...)
}

// ladderUnit is one submission of the generated stream: its invoker
// and its ops.
type ladderUnit struct {
	invoker policy.ProcessID
	ops     []peats.Op
}

// ladderInput is a workload's generated op stream for the isolated
// ladder: replayed in order from the initial state, every unit has the
// outcome it had when the stream was generated.
type ladderInput struct {
	pol     policy.Policy
	initial []tuple.Tuple
	units   []ladderUnit
}

var workloads = []workload{
	{name: "kv", setup: setupKV, ladder: ladderKV, span: 5 * time.Second, stationary: true},
	{name: "queue", setup: setupQueue, ladder: ladderQueue, span: 5 * time.Second, stationary: true},
	// A universal deployment is sized by invocation count (uniInvocations),
	// which takes about 2 s on two CPUs.
	{name: "universal", setup: setupUniversal, ladder: ladderUniversal, span: 2 * time.Second},
	{name: "xfer", setup: setupXfer, ladder: ladderXfer, span: 5 * time.Second, stationary: true},
}

// layerCtx carries what a workload's in-situ per-layer metrics are
// computed from: ops completed during the drive (warm-up included) and
// the groups' registries before and after it.
type layerCtx struct {
	ops           float64
	before, after []metrics.Snapshot
}
