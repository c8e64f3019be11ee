package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"peats/internal/bft"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// The queue workload: a durable work queue over TCP loopback. One
// sender pipelines out <"job", id, payload>; the other takes with
// single ordered inp <"job", ?id, ?p> a fixed lag behind, so only about
// queueRate·queueLag jobs are ever resident.
const (
	queueRate     = 200 // puts per second, and takes per second
	queueLag      = 250 * time.Millisecond
	queuePayload  = 256 // bytes per job
	queueFlushMax = 32  // puts per flush at most
)

// jobPayload is job id's payload, a pure function of seed and id.
func jobPayload(seed uint64, id int) []byte {
	r := rand.New(rand.NewPCG(seed, uint64(id)))
	b := make([]byte, queuePayload)
	for i := 0; i < len(b); i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

func jobTuple(seed uint64, id int) tuple.Tuple {
	return tuple.T(tuple.Str("job"), tuple.Int(int64(id)), tuple.Bytes(jobPayload(seed, id)))
}

var takeOp = peats.InpOp(tuple.T(tuple.Str("job"), tuple.Formal("id"), tuple.Formal("p")))

type queueInstance struct {
	e         *env
	g         *group
	root      string
	put, take *bft.RemoteSpace
	n         opCounts

	puts       int     // jobs put, ids 0..puts-1
	taken      []int64 // ids in take order
	badPayload int     // takes whose payload did not match the put

	tcpBefore, tcpAfter transport.TCPStats
	recoveryMs          float64
}

func setupQueue(_ context.Context, e *env) (instance, error) {
	root, err := os.MkdirTemp(e.dir, "queue-")
	if err != nil {
		return nil, err
	}
	g, err := newTCPGroup(policy.AllowAll(), e.tr, root, []string{"put", "take"})
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	q := &queueInstance{e: e, g: g, root: root}
	if q.put, err = g.client("put"); err == nil {
		q.take, err = g.client("take")
	}
	if err != nil {
		q.stop()
		return nil, err
	}
	return q, nil
}

func (q *queueInstance) drive(ctx context.Context) ([]*recorder, error) {
	q.tcpBefore = q.g.tcpStats()
	start := time.Now().Add(leadIn)
	from := start.Add(warmup)
	end := from.Add(q.e.window)
	puts := &recorder{from: from, tr: q.e.tr}
	takes := &recorder{from: from, tr: q.e.tr}
	interval := time.Second / queueRate
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		openLoopBatched(realClock{}, start, end, interval, queueFlushMax, classWrite, puts,
			func(lo, hi int) []error {
				pend := make([]*bft.PendingSubmit, 0, hi-lo)
				for id := lo; id < hi; id++ {
					op := peats.OutOp(jobTuple(q.e.seed, id))
					q.n.add([]peats.Op{op})
					pend = append(pend, q.put.SubmitAsync(op))
				}
				q.puts = hi
				ferr := flush(ctx, q.put)
				errs := make([]error, len(pend))
				for j, p := range pend {
					if errs[j] = ferr; ferr == nil {
						_, errs[j] = p.Results()
					}
				}
				return errs
			})
	}()
	go func() {
		defer wg.Done()
		// Half an interval out of phase with the puts.
		openLoop(realClock{}, start.Add(queueLag+interval/2), end, interval, takes, func(int) (opClass, error) {
			return classWrite, q.takeOne(ctx)
		})
	}()
	wg.Wait()
	q.tcpAfter = q.g.tcpStats()
	return []*recorder{puts, takes}, nil
}

// takeOne takes one job, recording its id; an empty queue is a miss.
func (q *queueInstance) takeOne(ctx context.Context) error {
	q.n.add([]peats.Op{takeOp})
	res, err := submit(ctx, q.take, takeOp)
	if err != nil {
		return err
	}
	if !res[0].Found {
		return errMiss
	}
	id, _ := res[0].Tuple.Field(1).IntValue()
	p, _ := res[0].Tuple.Field(2).BytesValue()
	if id < 0 || string(p) != string(jobPayload(q.e.seed, int(id))) {
		q.badPayload++
	}
	q.taken = append(q.taken, id)
	return nil
}

func (q *queueInstance) check(ctx context.Context) error {
	// Drain the jobs still queued behind the lag.
	for len(q.taken) < q.puts {
		if err := q.takeOne(ctx); err != nil {
			return fmt.Errorf("queue: drain after %d of %d takes: %w", len(q.taken), q.puts, err)
		}
	}
	res, err := submit(ctx, q.take, takeOp)
	if err != nil {
		return err
	}
	if res[0].Found {
		return fmt.Errorf("queue: job %v left after every put was taken", res[0].Tuple)
	}
	if q.badPayload > 0 {
		return fmt.Errorf("queue: %d jobs taken with a payload other than the one put", q.badPayload)
	}
	if err := q.g.quiesce(ctx); err != nil {
		return err
	}
	q.g.stop()
	// Every replica's data directory must recover to the same state.
	snaps := make([][]byte, len(q.g.dirs))
	for i, dir := range q.g.dirs {
		t0 := time.Now()
		svc, err := openDurableService(policy.AllowAll(), dir)
		if err != nil {
			return fmt.Errorf("queue: recover %s: %w", dir, err)
		}
		if i == 0 {
			q.recoveryMs = ms(time.Since(t0))
		}
		snaps[i] = svc.Snapshot()
		if err := svc.Close(); err != nil {
			return fmt.Errorf("queue: close recovered %s: %w", dir, err)
		}
	}
	return checkQueue(q.puts, q.taken, snaps)
}

// checkQueue verifies the queue end state: every put id taken exactly
// once, and every replica's recovered snapshot identical and empty.
func checkQueue(puts int, taken []int64, recovered [][]byte) error {
	seen := make([]bool, puts)
	for _, id := range taken {
		if id < 0 || id >= int64(puts) {
			return fmt.Errorf("queue: took job %d, never put", id)
		}
		if seen[id] {
			return fmt.Errorf("queue: job %d taken twice", id)
		}
		seen[id] = true
	}
	if len(taken) != puts {
		return fmt.Errorf("queue: %d jobs taken of %d put", len(taken), puts)
	}
	if err := snapshotsAgree(recovered); err != nil {
		return fmt.Errorf("queue: recovered state: %w", err)
	}
	if n := wire.NewReader(recovered[0]).Uvarint(); n != 0 {
		return fmt.Errorf("queue: %d tuples recovered, want an empty queue", n)
	}
	return nil
}

func (q *queueInstance) groups() []*group  { return []*group{q.g} }
func (q *queueInstance) counts() *opCounts { return &q.n }

func (q *queueInstance) layers(m map[string]float64, c layerCtx) {
	d := transport.TCPStats{
		FramesSent:   q.tcpAfter.FramesSent - q.tcpBefore.FramesSent,
		Writes:       q.tcpAfter.Writes - q.tcpBefore.Writes,
		BytesSent:    q.tcpAfter.BytesSent - q.tcpBefore.BytesSent,
		Backpressure: q.tcpAfter.Backpressure - q.tcpBefore.Backpressure,
	}
	m["transport.frames_per_op"] = ratio(float64(d.FramesSent), c.ops)
	m["transport.bytes_per_op"] = ratio(float64(d.BytesSent), c.ops)
	m["transport.frames_per_write"] = ratio(float64(d.FramesSent), float64(d.Writes))
	m["transport.backpressure"] = float64(d.Backpressure)
	m["durable.fsyncs_per_op"] = ratio(counterDelta(c.before, c.after, "peats_wal_fsyncs_total", ""), c.ops)
	m["durable.wal_bytes_per_op"] = ratio(counterDelta(c.before, c.after, "peats_wal_bytes_total", ""), c.ops)
	m["durable.recovery_ms"] = q.recoveryMs
}

func (q *queueInstance) stop() {
	q.g.stop()
	os.RemoveAll(q.root)
}

// ladderQueue generates the queue stream from a resident lag's worth
// of jobs: alternately one put and one take.
func ladderQueue(seed uint64) (ladderInput, error) {
	in := ladderInput{pol: policy.AllowAll()}
	resident := int(queueLag / (time.Second / queueRate))
	for id := range resident {
		in.initial = append(in.initial, jobTuple(seed, id))
	}
	for i := range 500 {
		in.units = append(in.units,
			ladderUnit{invoker: "put", ops: []peats.Op{peats.OutOp(jobTuple(seed, resident+i))}},
			ladderUnit{invoker: "take", ops: []peats.Op{takeOp}})
	}
	return in, nil
}
