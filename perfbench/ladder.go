package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"os"
	"time"

	"peats/internal/auth"
	"peats/internal/bft"
	"peats/internal/durable"
	"peats/internal/peats"
	"peats/internal/policy"
	"peats/internal/space"
	"peats/internal/transport"
	"peats/internal/tuple"
	"peats/internal/wire"
)

// The isolated ladder replays a workload's generated op stream into one
// layer's public entry point per rung. Pure rungs (encoding, matching,
// policy-free crypto) loop over the stream for at least pureBudget;
// state-changing rungs replay it once, in order, from the initial
// state, timing each call.
const (
	pureBudget = 60 * time.Millisecond
	maxRTT     = 300 // transport round trips
	maxSigns   = 300 // ed25519 signatures
	maxCommits = 400 // durable units
	flushEvery = 16  // durable units per timed Flush
	deltaEvery = 64  // ordered units per timed CheckpointDelta, the replicas' checkpoint interval
)

// ladderMaster keys the ladder's MAC and attestation rungs.
var ladderMaster = []byte("perfbench-ladder")

// flatOp is one op of the stream with its unit position.
type flatOp struct {
	invoker policy.ProcessID
	op      peats.Op
	txIndex int
	txLen   int
}

// stopwatch accumulates per-call timings, less the clock's own cost.
type stopwatch struct {
	total time.Duration
	n     int
}

var clockCost = measureClockCost()

func measureClockCost() time.Duration {
	var d []float64
	for range 1000 {
		t0 := time.Now()
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d))
}

func (s *stopwatch) since(t0 time.Time) {
	s.total += max(0, time.Since(t0)-clockCost)
	s.n++
}

func (s *stopwatch) ns() float64 { return ratio(float64(s.total), float64(s.n)) }

// loopNs runs fn over 0..n-1 repeatedly for at least pureBudget and
// returns the mean nanoseconds per call.
func loopNs(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < pureBudget {
		for i := range n {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(t0)) / float64(calls)
}

func encodeUnit(u ladderUnit) []byte {
	wops := make([]wire.SpaceOp, len(u.ops))
	for i, op := range u.ops {
		wops[i] = wire.SpaceOp{Op: op.Code, Template: op.Template, Entry: op.Entry}
	}
	if len(wops) == 1 {
		return wire.EncodeSpaceOp(wops[0])
	}
	return wire.EncodeSpaceTx(wire.SpaceTx{Ops: wops})
}

// runLadder measures every isolated rung on in's stream and returns the
// per-layer metrics and the self time of each rung of the
// match → find → space → submit → execute chain, in ns per op.
func runLadder(in ladderInput, tr *tracer, scratch string) (m, self map[string]float64, err error) {
	m = make(map[string]float64)
	rung := func(name string, fn func() error) {
		if err != nil {
			return
		}
		t0 := time.Now()
		err = fn()
		tr.add("ladder."+name, 0, t0, time.Now())
		if err != nil {
			err = fmt.Errorf("ladder %s: %w", name, err)
		}
	}

	var flat []flatOp
	var tuples [][]byte
	var tupleVals []tuple.Tuple
	units := make([][]byte, len(in.units))
	for i, u := range in.units {
		units[i] = encodeUnit(u)
		for j, op := range u.ops {
			flat = append(flat, flatOp{invoker: u.invoker, op: op, txIndex: j, txLen: len(u.ops)})
			for _, t := range []tuple.Tuple{op.Template, op.Entry} {
				if !t.IsZero() {
					tupleVals = append(tupleVals, t)
					tuples = append(tuples, tuple.Encode(t))
				}
			}
		}
	}
	opsPerUnit := ratio(float64(len(flat)), float64(len(units)))

	rung("codec", func() error {
		var buf []byte
		m["tuple.encode_ns"] = loopNs(len(tupleVals), func(i int) { buf = tuple.Append(buf[:0], tupleVals[i]) })
		m["tuple.decode_ns"] = loopNs(len(tuples), func(i int) { _, _, _ = tuple.Decode(tuples[i]) })
		m["wire.encode_ns"] = loopNs(len(in.units), func(i int) { _ = encodeUnit(in.units[i]) })
		m["wire.decode_ns"] = loopNs(len(units), func(i int) {
			if wire.IsSpaceTx(units[i]) {
				_, _ = wire.DecodeSpaceTx(units[i])
			} else {
				_, _ = wire.DecodeSpaceOp(units[i])
			}
		})
		var size int
		for _, u := range units {
			size += len(u)
		}
		m["wire.unit_bytes"] = ratio(float64(size), float64(len(units)))
		return nil
	})

	rung("auth", func() error {
		kr := auth.NewKeyringFromMaster(ladderMaster, "client", []string{"r0"})
		var merr error
		m["auth.mac_ns"] = loopNs(len(units), func(i int) {
			if _, err := kr.MAC("r0", units[i]); err != nil {
				merr = err
			}
		})
		m["auth.digest_ns"] = loopNs(len(units), func(i int) { _ = auth.Digest(units[i]) })
		return merr
	})

	// Space replay: the reference monitor's decision, then the op, on
	// a space holding the workload's state; it also collects the
	// (template, matched tuple) pairs for the match rung.
	type pair struct{ entry, tmpl tuple.Tuple }
	var pairs []pair
	allowed := make([]bool, len(flat))
	var eval, rdp, inp, out, cas stopwatch
	rung("space", func() error {
		sp, err := space.NewWithEngine(space.EngineIndexed)
		if err != nil {
			return err
		}
		sp.Restore(in.initial)
		for i, f := range flat {
			inv := policy.Invocation{Invoker: f.invoker, Op: f.op.Code, Template: f.op.Template,
				Entry: f.op.Entry, TxIndex: f.txIndex, TxLen: f.txLen}
			t0 := time.Now()
			d := in.pol.Evaluate(inv, sp)
			eval.since(t0)
			if allowed[i] = d.Allowed; !d.Allowed {
				continue
			}
			switch f.op.Code {
			case policy.OpOut:
				t0 = time.Now()
				err = sp.Out(f.op.Entry)
				out.since(t0)
			case policy.OpRdp:
				t0 = time.Now()
				t, ok := sp.Rdp(f.op.Template)
				rdp.since(t0)
				if ok {
					pairs = append(pairs, pair{t, f.op.Template})
				}
			case policy.OpInp:
				t0 = time.Now()
				t, ok := sp.Inp(f.op.Template)
				inp.since(t0)
				if ok {
					pairs = append(pairs, pair{t, f.op.Template})
				}
			case policy.OpCas:
				t0 = time.Now()
				_, _, err = sp.Cas(f.op.Template, f.op.Entry)
				cas.since(t0)
			}
			if err != nil {
				return err
			}
		}
		m["policy.eval_ns"] = eval.ns()
		m["space.rdp_ns"], m["space.inp_ns"], m["space.out_ns"] = rdp.ns(), inp.ns(), out.ns()
		return nil
	})

	rung("match", func() error {
		m["tuple.match_ns"] = loopNs(len(pairs), func(i int) { _, _ = tuple.Match(pairs[i].entry, pairs[i].tmpl) })
		return nil
	})

	rung("find", func() error {
		st := space.NewIndexedStore()
		var seq uint64
		for _, t := range in.initial {
			seq++
			st.Insert(t, seq)
		}
		var find stopwatch
		for i, f := range flat {
			if !allowed[i] {
				continue
			}
			switch f.op.Code {
			case policy.OpOut:
				seq++
				st.Insert(f.op.Entry, seq)
			case policy.OpRdp, policy.OpInp:
				t0 := time.Now()
				st.Find(f.op.Template, f.op.Code == policy.OpInp)
				find.since(t0)
			case policy.OpCas:
				t0 := time.Now()
				_, _, found := st.Find(f.op.Template, false)
				find.since(t0)
				if !found {
					seq++
					st.Insert(f.op.Entry, seq)
				}
			}
		}
		m["space.find_ns"] = find.ns()
		return nil
	})

	rung("submit", func() error {
		inner, err := space.NewWithEngine(space.EngineIndexed)
		if err != nil {
			return err
		}
		inner.Restore(in.initial)
		sp := peats.Wrap(inner, in.pol)
		handles := make(map[policy.ProcessID]*peats.Handle)
		ctx := context.Background()
		var sub stopwatch
		for _, u := range in.units {
			h := handles[u.invoker]
			if h == nil {
				h = sp.Handle(u.invoker)
				handles[u.invoker] = h
			}
			t0 := time.Now()
			_, _ = h.Submit(ctx, u.ops...) // denials replay as they happened
			sub.since(t0)
		}
		m["peats.submit_ns"] = sub.ns()
		return nil
	})

	var replies [][]byte
	var exec, ro, delta stopwatch
	rung("service", func() error {
		svc, err := bft.NewSpaceServiceWithConfig(in.pol, space.EngineIndexed, 1)
		if err != nil {
			return err
		}
		svc.Space().Restore(in.initial)
		svc.CheckpointDelta() // Restore broke the journal; start a fresh one
		for i, u := range in.units {
			if readOnly(u.ops) {
				t0 := time.Now()
				_, _ = svc.ExecuteReadOnly(string(u.invoker), units[i])
				ro.since(t0)
				continue
			}
			t0 := time.Now()
			replies = append(replies, svc.Execute(string(u.invoker), units[i]))
			exec.since(t0)
			if len(replies)%deltaEvery == 0 {
				t0 = time.Now()
				svc.CheckpointDelta()
				delta.since(t0)
			}
		}
		m["service.execute_us"] = exec.ns() / 1e3
		m["service.execute_ro_us"] = ro.ns() / 1e3
		m["service.delta_us"] = delta.ns() / 1e3
		return nil
	})

	rung("attest", func() error {
		key := bft.AttestKeyFor(ladderMaster, "g0", "r0")
		pub := key.Public().(ed25519.PublicKey)
		var sign, verify stopwatch
		for _, r := range replies[:min(len(replies), maxSigns)] {
			payload := wire.AttestPayload("g0", r)
			t0 := time.Now()
			sig := ed25519.Sign(key, payload)
			sign.since(t0)
			t0 = time.Now()
			ok := ed25519.Verify(pub, payload, sig)
			verify.since(t0)
			if !ok {
				return fmt.Errorf("attestation does not verify")
			}
		}
		m["auth.sign_us"], m["auth.verify_us"] = sign.ns()/1e3, verify.ns()/1e3
		return nil
	})

	rung("transport", func() error {
		us, err := transportRTT(units)
		m["transport.rtt_us"] = us
		return err
	})

	rung("durable", func() error {
		commit, flush, err := durableCommits(in, units, scratch)
		m["durable.commit_us"], m["durable.flush_us"] = commit, flush
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	// Self time along match → find → space op → submit → execute, per
	// op: each rung's time less the rung it calls into.
	perOp := func(ws ...stopwatch) float64 {
		var sum stopwatch
		for _, w := range ws {
			sum.total, sum.n = sum.total+w.total, sum.n+w.n
		}
		return sum.ns()
	}
	lookup := perOp(rdp, inp)
	spaceOp := perOp(rdp, inp, out, cas)
	submitOp := m["peats.submit_ns"] / opsPerUnit
	self = map[string]float64{
		"tuple.match":     m["tuple.match_ns"],
		"space.find":      m["space.find_ns"] - m["tuple.match_ns"],
		"space.lookup":    lookup - m["space.find_ns"],
		"peats.submit":    submitOp - spaceOp - m["policy.eval_ns"],
		"service.execute": perOp(exec, ro)/opsPerUnit - submitOp,
	}
	return m, self, nil
}

// transportRTT echoes workload-sized frames over a TCP loopback pair
// and returns the mean round trip in microseconds.
func transportRTT(frames [][]byte) (float64, error) {
	ids := []string{"a", "b"}
	a, err := transport.NewTCP("a", "127.0.0.1:0", nil, auth.NewKeyringFromMaster(ladderMaster, "a", ids))
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := transport.NewTCP("b", "127.0.0.1:0", nil, auth.NewKeyringFromMaster(ladderMaster, "b", ids))
	if err != nil {
		return 0, err
	}
	a.SetPeerAddr("b", b.Addr())
	b.SetPeerAddr("a", a.Addr())
	done := make(chan struct{})
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			select {
			case m := <-b.Inbox():
				_ = b.Send(m.From, m.Payload) // a lost echo shows as a timeout
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		<-echoed
		b.Close()
	}()
	roundTrip := func(p []byte) error {
		if err := a.Send("b", p); err != nil {
			return err
		}
		select {
		case <-a.Inbox():
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no echo")
		}
	}
	if err := roundTrip(frames[0]); err != nil { // dial outside the timing
		return 0, err
	}
	var rtt stopwatch
	for _, f := range frames[:min(len(frames), maxRTT)] {
		t0 := time.Now()
		if err := roundTrip(f); err != nil {
			return 0, err
		}
		rtt.since(t0)
	}
	return rtt.ns() / 1e3, nil
}

// durableCommits executes the ordered units as WAL units on a durable
// service with the interval fsync policy, timing BeginUnit+Execute+
// CommitUnit and, every flushEvery units, Flush. Results are in
// microseconds.
func durableCommits(in ladderInput, units [][]byte, scratch string) (commitUs, flushUs float64, err error) {
	dir, err := os.MkdirTemp(scratch, "ladder-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	db, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncInterval, AutoCompactBytes: -1})
	if err != nil {
		return 0, 0, err
	}
	svc, err := bft.NewDurableSpaceService(in.pol, db, 1)
	if err != nil {
		db.Close()
		return 0, 0, err
	}
	defer svc.Close()
	seq := uint64(1)
	svc.BeginUnit(seq)
	for _, t := range in.initial {
		if err := svc.Space().Out(t); err != nil {
			return 0, 0, err
		}
	}
	svc.CommitUnit(nil)
	if err := db.Flush(); err != nil {
		return 0, 0, err
	}
	var commit, flush stopwatch
	for i, u := range in.units {
		if readOnly(u.ops) {
			continue
		}
		if commit.n == maxCommits {
			break
		}
		seq++
		t0 := time.Now()
		svc.BeginUnit(seq)
		svc.Execute(string(u.invoker), units[i])
		svc.CommitUnit(nil)
		commit.since(t0)
		if commit.n%flushEvery == 0 {
			t0 = time.Now()
			if err := db.Flush(); err != nil {
				return 0, 0, err
			}
			flush.since(t0)
		}
	}
	return commit.ns() / 1e3, flush.ns() / 1e3, db.Err()
}
