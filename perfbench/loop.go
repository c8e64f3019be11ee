package main

import (
	"syscall"
	"time"
)

// opClass labels an op for the per-class latency metrics.
type opClass uint8

const (
	classRead   opClass = iota // kv fast-path reads
	classWrite                 // single-group ordered units
	classCross                 // cross-group 2PC units
	classInvoke                // universal-construction invocations
	numClasses
)

var classNames = [numClasses]string{"read", "write", "cross", "invoke"}

// sample is one measured op. Latency runs from the op's due time (its
// send time in a closed loop) to its completion; late is how far behind
// its due time the generator sent it.
type sample struct {
	class   opClass
	due     time.Time
	latency time.Duration
	late    time.Duration
	failed  bool
}

// recorder collects one sender goroutine's samples; senders own their
// recorder, so it needs no locking.
type recorder struct {
	samples []sample
	// from is the start of the measurement window: ops due earlier are
	// warm-up and are not recorded.
	from time.Time
	tr   *tracer
	// total counts every completed op, warm-up included; first and last bound the
	// measured ops' sends and completions.
	total       int
	first, last time.Time
}

func (r *recorder) record(c opClass, due, sent, done time.Time, err error) {
	if err == nil {
		r.total++
	}
	if due.Before(r.from) {
		return
	}
	if r.first.IsZero() {
		r.first = sent
	}
	r.last = done
	r.samples = append(r.samples, sample{class: c, due: due, latency: done.Sub(due), late: sent.Sub(due), failed: err != nil})
	if r.tr != nil {
		id := r.tr.add("op."+classNames[c], 0, due, done)
		r.tr.add("client.submit", id, sent, done)
	}
}

// clock abstracts time for the open-loop senders, so tests can stall
// an op deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil blocks the calling thread in nanosleep(2). The runtime's
// own timers wake sleepers at millisecond granularity when the process
// is idle, which would charge every open-loop op up to a millisecond
// of generator lateness.
func (realClock) SleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openLoop issues op i at its due time start+i·interval, for every due
// time before end, one op at a time. An op whose predecessor is still
// running goes out as soon as the predecessor returns, and every op is
// charged from its due time: a stall counts against each op queued
// behind it, as it would for independent users arriving on schedule.
func openLoop(clk clock, start, end time.Time, interval time.Duration, rec *recorder,
	do func(i int) (opClass, error)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return
		}
		clk.SleepUntil(due)
		sent := clk.Now()
		c, err := do(i)
		rec.record(c, due, sent, clk.Now(), err)
	}
}

// openLoopBatched is openLoop for a pipelining sender: each turn it
// sends every op already due (at most maxBatch) as one batch through
// do, which returns one error per op. Each op is charged from its own
// due time to the batch's completion.
func openLoopBatched(clk clock, start, end time.Time, interval time.Duration, maxBatch int,
	c opClass, rec *recorder, do func(lo, hi int) []error) {
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	for next := 0; due(next).Before(end); {
		clk.SleepUntil(due(next))
		sent := clk.Now()
		hi := next + 1
		for hi-next < maxBatch && !due(hi).After(sent) && due(hi).Before(end) {
			hi++
		}
		errs := do(next, hi)
		done := clk.Now()
		for i := next; i < hi; i++ {
			rec.record(c, due(i), sent, done, errs[i-next])
		}
		next = hi
	}
}
