package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p        float64
		v        float64
		beyond   int
		reported bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{999, 0.95, 950, 49, true},
		{21, 0.5, 11, 10, true},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{1, 0.5, 1, 0, false},
	} {
		v, beyond, ok := percentile(seq(tc.n), tc.p)
		if v != tc.v || beyond != tc.beyond || ok != tc.reported {
			t.Errorf("percentile(n=%d, p=%g) = %g, %d beyond, ok=%v; want %g, %d, %v",
				tc.n, tc.p, v, beyond, ok, tc.v, tc.beyond, tc.reported)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestTailPicksHighestQualifyingPercentile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		p, _, ok := tail(seq(tc.n))
		if p != tc.p || ok != tc.ok {
			t.Errorf("tail(n=%d) = p%g ok=%v; want p%g ok=%v", tc.n, p, ok, tc.p, tc.ok)
		}
	}
}

func TestSummarizeReportsSampleCounts(t *testing.T) {
	xs := seq(500)
	xs[0], xs[499] = xs[499], xs[0] // unsorted input
	s := summarize(xs)
	if s.N != 500 || s.P50ms != 250 || s.P50Beyond != 250 || s.P90ms != 450 || s.P90Beyond != 50 ||
		s.P99ms != 495 || s.P99Beyond != 5 || s.TailPct != 95 || s.TailMs != 475 {
		t.Errorf("summarize = %+v", s)
	}
}

// fakeClock advances only when an op runs or the generator sleeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	rec := &recorder{from: t0}
	const interval = 10 * time.Millisecond
	openLoop(clk, t0, t0.Add(100*time.Millisecond), interval, rec, func(i int) (opClass, error) {
		if i == 0 {
			clk.now = clk.now.Add(50 * time.Millisecond) // op 0 stalls
		} else {
			clk.now = clk.now.Add(time.Millisecond)
		}
		return classWrite, nil
	})
	if len(rec.samples) != 10 || rec.total != 10 {
		t.Fatalf("%d samples, %d total; want 10", len(rec.samples), rec.total)
	}
	// Op 1 was due at 10ms, went out at 50ms behind the stalled op 0,
	// and finished at 51ms: 41ms from its due time, 40ms of it late.
	want := []struct{ latency, late time.Duration }{
		{50, 0}, {41, 40}, {32, 31}, {23, 22}, {14, 13}, {5, 4}, {1, 0}, {1, 0},
	}
	for i, w := range want {
		s := rec.samples[i]
		if s.latency != w.latency*time.Millisecond || s.late != w.late*time.Millisecond {
			t.Errorf("op %d: latency %v late %v; want %v, %v", i, s.latency, s.late,
				w.latency*time.Millisecond, w.late*time.Millisecond)
		}
	}
}

func TestOpenLoopBatchedChargesEachOpFromItsDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	rec := &recorder{from: t0}
	var batches [][2]int
	openLoopBatched(clk, t0, t0.Add(100*time.Millisecond), 10*time.Millisecond, 4, classWrite, rec,
		func(lo, hi int) []error {
			batches = append(batches, [2]int{lo, hi})
			if lo == 0 {
				clk.now = clk.now.Add(50 * time.Millisecond)
			} else {
				clk.now = clk.now.Add(time.Millisecond)
			}
			return make([]error, hi-lo)
		})
	// Ops 1-5 are due by the time op 0 returns; the batch bound splits
	// them 4+1.
	if len(batches) < 3 || batches[0] != [2]int{0, 1} || batches[1] != [2]int{1, 5} || batches[2] != [2]int{5, 6} {
		t.Fatalf("batches %v", batches)
	}
	if got := rec.samples[1].latency; got != 41*time.Millisecond {
		t.Errorf("op 1 latency %v, want 41ms (due 10ms, done 51ms)", got)
	}
	if got := rec.samples[4].latency; got != 11*time.Millisecond {
		t.Errorf("op 4 latency %v, want 11ms (due 40ms, done 51ms)", got)
	}
	if got := rec.samples[5].latency; got != 2*time.Millisecond {
		t.Errorf("op 5 latency %v, want 2ms (due 50ms, done 52ms)", got)
	}
	if len(rec.samples) != 10 {
		t.Errorf("%d samples, want 10", len(rec.samples))
	}
}

func TestRecorderSkipsWarmup(t *testing.T) {
	t0 := time.Unix(1000, 0)
	rec := &recorder{from: t0.Add(time.Second)}
	rec.record(classRead, t0, t0, t0.Add(time.Millisecond), nil)
	rec.record(classRead, t0.Add(time.Second), t0.Add(time.Second), t0.Add(time.Second+time.Millisecond), nil)
	if rec.total != 2 || len(rec.samples) != 1 {
		t.Errorf("total %d, %d samples; want 2 ops, 1 recorded", rec.total, len(rec.samples))
	}
}

// TestMetricNamesMatchBenchmarkFile pins the metrics a run reports to
// the ones BENCHMARK.json declares, with the same units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		reported map[string]string
	}{{"end_to_end", b.EndToEnd, e2eUnits()}, {"per_layer", b.PerLayer, perLayerUnits()}} {
		if len(set.declared) != len(set.reported) {
			t.Errorf("%s: %d declared, %d reported", set.what, len(set.declared), len(set.reported))
		}
		for _, m := range set.declared {
			if unit, ok := set.reported[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s declared in %s, reported in %q", set.what, m.Name, m.Unit, unit)
			}
		}
	}
}
