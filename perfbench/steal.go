package main

import (
	"bufio"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared host the hypervisor runs other guests on this machine's
// virtual CPUs from time to time; Linux counts that time as steal. It
// comes in bursts of a few hundred milliseconds, and an op that overlaps
// one is stretched by however long its CPU was taken away, so a run's
// latency percentiles would track the neighbours' load rather than the
// program. The steal monitor samples the kernel's steal counter while a
// deployment is driven, and the latency percentiles are taken over the
// ops that ran while it did not move (see steadiest).

// stealPeriod is how often the monitor samples the steal counter. The
// counter is kept in clock ticks (10 ms), so shorter periods would only
// see it move later.
const stealPeriod = 25 * time.Millisecond

// stealGuard is how many periods either side of an op count as near
// it. The counter moves once per 10 ms of steal summed over the CPUs,
// so a burst that takes a few milliseconds of every period moves it
// only every few periods.
const stealGuard = 2

// stealReading is the cumulative steal of every CPU at one instant, in
// clock ticks.
type stealReading struct {
	at    time.Time
	ticks uint64
}

// stealMonitor samples the steal counter every stealPeriod until
// stopped.
type stealMonitor struct {
	stop chan struct{}
	done sync.WaitGroup
	read []stealReading
}

// startStealMonitor starts sampling. Where the counter cannot be read it
// records nothing, and every op counts as clean.
func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{})}
	f, err := os.Open("/proc/stat")
	if err != nil {
		return m
	}
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		defer f.Close()
		tick := time.NewTicker(stealPeriod)
		defer tick.Stop()
		for {
			if v, ok := readSteal(f); ok {
				m.read = append(m.read, stealReading{time.Now(), v})
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns its readings.
func (m *stealMonitor) finish() stealSeries {
	close(m.stop)
	m.done.Wait()
	return m.read
}

// readSteal reads the steal column of the aggregate "cpu" line of
// /proc/stat, re-reading the open file from its start.
func readSteal(f *os.File) (uint64, bool) {
	if _, err := f.Seek(0, 0); err != nil {
		return 0, false
	}
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[8], 10, 64)
	return v, err == nil
}

// stealSeries is the monitor's readings in time order.
type stealSeries []stealReading

// exposure is the steal near [from, to]: the ticks the counter moved
// from the last reading at least stealGuard periods before from to the
// first reading at least stealGuard periods after to. The counter moves
// in whole ticks, so steal it records may have begun before from, or
// may still be running at to. It is 0 without readings.
func (ss stealSeries) exposure(from, to time.Time) uint64 {
	if len(ss) == 0 {
		return 0
	}
	guard := stealGuard * stealPeriod
	from, to = from.Add(-guard), to.Add(guard)
	// a: the last reading at or before from; b: the first at or after to.
	a := sort.Search(len(ss), func(i int) bool { return ss[i].at.After(from) }) - 1
	b := sort.Search(len(ss), func(i int) bool { return !ss[i].at.Before(to) })
	a, b = max(a, 0), min(b, len(ss)-1)
	if b <= a {
		return 0
	}
	return ss[b].ticks - ss[a].ticks
}

// measured is one completed measured op: its class, its latency and
// the steal near it.
type measured struct {
	class opClass
	ms    float64
	steal uint64
}

// steadiest picks the ops the latency percentiles are taken over: those
// with the least steal near them. level is the most steal a picked op
// saw, the least that still leaves minClean ops (or every op, if there
// are fewer); on a quiet host it is 0 and only ops clear of steal count.
func steadiest(ops []measured) (level uint64, picked []measured) {
	if len(ops) == 0 {
		return 0, nil
	}
	levels := make([]uint64, len(ops))
	for i, o := range ops {
		levels[i] = o.steal
	}
	slices.Sort(levels)
	level = levels[min(minClean, len(levels))-1]
	for _, o := range ops {
		if o.steal <= level {
			picked = append(picked, o)
		}
	}
	return level, picked
}
