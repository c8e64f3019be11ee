package main

import (
	"os"
	"testing"
	"time"
)

// series builds readings one stealPeriod apart from t0 with the given
// cumulative tick counts.
func series(t0 time.Time, ticks ...uint64) stealSeries {
	ss := make(stealSeries, len(ticks))
	for i, v := range ticks {
		ss[i] = stealReading{t0.Add(time.Duration(i) * stealPeriod), v}
	}
	return ss
}

func TestStealExposure(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(periods float64) time.Time { return t0.Add(time.Duration(periods * float64(stealPeriod))) }
	// The counter moves by 2 between readings 10 and 11, by 1 between 20 and 21.
	ticks := make([]uint64, 40)
	for i := range ticks {
		switch {
		case i >= 21:
			ticks[i] = 3
		case i >= 11:
			ticks[i] = 2
		}
	}
	ss := series(t0, ticks...)
	for _, tc := range []struct {
		from, to float64 // in periods from t0
		want     uint64
	}{
		// A move between readings k and k+1 is near [from, to] iff
		// from < k+1+stealGuard and to > k-stealGuard.
		{0, 1, 0},
		{10.2, 10.5, 2}, // inside the period where it moved
		{12.5, 14, 2},   // within stealGuard periods after it
		{13, 14, 0},     // beyond the guard
		{7.5, 8.5, 2},   // within the guard before it
		{7, 8, 0},       // before the guard
		{12, 20.5, 3},   // spans both moves
		{16.5, 17.5, 0}, // between the moves, clear of both guards
		{38, 45, 0},     // runs past the last reading
		{-100, 200, 3},  // beyond both ends
	} {
		if got := ss.exposure(at(tc.from), at(tc.to)); got != tc.want {
			t.Errorf("exposure(%g, %g periods) = %d, want %d", tc.from, tc.to, got, tc.want)
		}
	}
	if got := stealSeries(nil).exposure(t0, t0.Add(time.Second)); got != 0 {
		t.Errorf("exposure without readings = %d, want 0", got)
	}
}

func TestSteadiestPicksLeastStolen(t *testing.T) {
	var ops []measured
	for i := range 3 * minClean {
		// A sixth of the ops clear of steal, a third at 1 tick, half at 5.
		ops = append(ops, measured{class: classRead, ms: float64(i), steal: []uint64{0, 1, 1, 5, 5, 5}[i%6]})
	}
	level, picked := steadiest(ops)
	if level != 1 || len(picked) != 3*minClean/2 {
		t.Errorf("level %d, %d picked; want level 1 (too few clear ops) and %d picked", level, len(picked), 3*minClean/2)
	}
	for _, o := range picked {
		if o.steal > 1 {
			t.Fatalf("picked an op with %d ticks near it", o.steal)
		}
	}

	for i := range ops {
		ops[i].steal = 5
		if i < minClean+10 {
			ops[i].steal = 0
		}
	}
	if level, picked := steadiest(ops); level != 0 || len(picked) != minClean+10 {
		t.Errorf("level %d, %d picked; want only the %d clear ops", level, len(picked), minClean+10)
	}
	if level, picked := steadiest(ops[len(ops)-5:]); level != 5 || len(picked) != 5 {
		t.Errorf("few ops: level %d, %d picked; want every op", level, len(picked))
	}
	if level, picked := steadiest(nil); level != 0 || picked != nil {
		t.Errorf("no ops: level %d, %v picked", level, picked)
	}
}

func TestReadSteal(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "stat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("cpu  873453 0 55492 1665632 22557 0 21500 73844 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"); err != nil {
		t.Fatal(err)
	}
	for range 2 { // re-reads from the start
		if v, ok := readSteal(f); !ok || v != 73844 {
			t.Errorf("readSteal = %d, %v; want 73844", v, ok)
		}
	}
}
