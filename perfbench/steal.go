package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"time"
)

// On a virtual machine the hypervisor can withhold the vCPUs for a while
// to run other guests; the steal column of /proc/stat counts those ticks.
// The benchmark samples it during each measured phase so every one-second
// block knows how much CPU the host took from it.

// userHZ is the unit of /proc/stat (USER_HZ, 100 on every Linux port the
// Go toolchain supports).
const userHZ = 100

// stealTicks returns the machine's cumulative stolen ticks, or false where
// /proc/stat is not available.
func stealTicks() (int64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseInt(string(f[8]), 10, 64)
	return n, err == nil
}

type stealSample struct{ t, ticks int64 }

// stealMonitor samples stolen ticks every 100 ms until finished.
type stealMonitor struct {
	stop    chan struct{}
	done    chan struct{}
	samples []stealSample
}

func startSteal() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if n, ok := stealTicks(); ok {
				m.samples = append(m.samples, stealSample{now(), n})
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

// finish stops the monitor, takes a last sample and returns all of them.
func (m *stealMonitor) finish() []stealSample {
	close(m.stop)
	<-m.done
	if n, ok := stealTicks(); ok {
		m.samples = append(m.samples, stealSample{now(), n})
	}
	return m.samples
}

// ticksAt interpolates the stolen-tick count at time t.
func ticksAt(s []stealSample, t int64) float64 {
	if t <= s[0].t {
		return float64(s[0].ticks)
	}
	for i := 1; i < len(s); i++ {
		if t <= s[i].t {
			a, b := s[i-1], s[i]
			return float64(a.ticks) + float64(b.ticks-a.ticks)*float64(t-a.t)/float64(b.t-a.t)
		}
	}
	return float64(s[len(s)-1].ticks)
}

// stealShare returns the share of the machine's CPU time the host took
// in [t0, t1], or 0 without samples.
func stealShare(s []stealSample, t0, t1 int64) float64 {
	if len(s) < 2 || t1 <= t0 {
		return 0
	}
	capacity := float64(runtime.NumCPU()) * userHZ * float64(t1-t0) / 1e9
	return (ticksAt(s, t1) - ticksAt(s, t0)) / capacity
}
