package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"peats/internal/bft"
	"peats/internal/metrics"
)

// span is one traced interval. Times are nanoseconds since the tracer
// started; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; spans past it are counted
// but dropped.
const maxSpans = 1 << 20

// tracer keeps spans and protocol events in memory until the run ends.
// A nil *tracer records nothing, so the untraced run pays one branch
// per call site.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	events  []event
}

// event is one protocol event from bft.WithEventSink, stamped on
// arrival. group tells apart the groups of a partitioned deployment.
type event struct {
	group string
	ev    bft.Event
	at    time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 when tracing is
// off or the buffer is full).
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// sink returns an event sink tagging events with group. The sink runs
// on replica event loops, so it only appends under the lock.
func (t *tracer) sink(group string) bft.EventSink {
	return func(e bft.Event) {
		switch e.Type {
		case bft.EventBatchProposed, bft.EventPrepared, bft.EventExecuted,
			bft.EventTentativeExecuted, bft.EventTentativePromoted:
		default:
			return
		}
		now := time.Now()
		t.mu.Lock()
		t.events = append(t.events, event{group: group, ev: e, at: now})
		t.mu.Unlock()
	}
}

// batchPhases turns the primary's protocol events into per-batch spans
// and returns the mean duration in microseconds of propose→prepared,
// prepared→executed and tentative-executed→promoted.
func (t *tracer) batchPhases() (proposeToPrepared, preparedToExecuted, tentativeToPromoted float64) {
	type key struct {
		group, replica string
		seq            uint64
	}
	t.mu.Lock()
	evs := append([]event(nil), t.events...)
	t.mu.Unlock()

	stamps := make(map[key]map[bft.EventType]time.Time)
	primaries := make(map[key]bool)
	for _, e := range evs {
		k := key{e.group, e.ev.Replica, e.ev.Seq}
		m := stamps[k]
		if m == nil {
			m = make(map[bft.EventType]time.Time)
			stamps[k] = m
		}
		if _, seen := m[e.ev.Type]; !seen {
			m[e.ev.Type] = e.at
		}
		if e.ev.Type == bft.EventBatchProposed {
			primaries[k] = true
		}
	}
	var p2p, p2e, t2p []float64
	for k := range primaries {
		m := stamps[k]
		proposed, prepared, executed := m[bft.EventBatchProposed], m[bft.EventPrepared], m[bft.EventExecuted]
		if prepared.IsZero() || executed.IsZero() {
			continue
		}
		id := t.add("bft.batch", 0, proposed, executed)
		t.add("bft.propose_to_prepared", id, proposed, prepared)
		t.add("bft.prepared_to_executed", id, prepared, executed)
		p2p = append(p2p, float64(prepared.Sub(proposed))/1e3)
		p2e = append(p2e, float64(executed.Sub(prepared))/1e3)
		if te, tp := m[bft.EventTentativeExecuted], m[bft.EventTentativePromoted]; !te.IsZero() && !tp.IsZero() {
			t.add("bft.tentative_to_promoted", id, te, tp)
			t2p = append(t2p, float64(tp.Sub(te))/1e3)
		}
	}
	return mean(p2p), mean(p2e), mean(t2p)
}

// resetEvents drops the events recorded so far, so the phase metrics
// cover only the drive, not the setup's prefill.
func (t *tracer) resetEvents() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}

// dump writes the spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write span dump: %w", err)
	}
	return nil
}

// famTotal is a metric family summed over series: the value for
// counters and gauges, the observation count and sum for histograms.
type famTotal struct {
	value, count, sum float64
}

// famTotals sums family name over every snapshot, optionally only the
// series with the given replica label.
func famTotals(snaps []metrics.Snapshot, name, replica string) famTotal {
	var t famTotal
	for _, snap := range snaps {
		for _, f := range snap.Families {
			if f.Name != name {
				continue
			}
			for _, s := range f.Series {
				if replica != "" && s.Labels["replica"] != replica {
					continue
				}
				t.value += s.Value
				t.count += float64(s.Count)
				t.sum += s.Sum
			}
		}
	}
	return t
}

// counterDelta is the growth of a summed counter between two sets of
// snapshots.
func counterDelta(before, after []metrics.Snapshot, name, replica string) float64 {
	return famTotals(after, name, replica).value - famTotals(before, name, replica).value
}

// histDeltaMean is the mean of the observations a summed histogram
// gained between two sets of snapshots.
func histDeltaMean(before, after []metrics.Snapshot, name, replica string) float64 {
	a, b := famTotals(after, name, replica), famTotals(before, name, replica)
	return ratio(a.sum-b.sum, a.count-b.count)
}

func snapAll(regs []*metrics.Registry) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}
