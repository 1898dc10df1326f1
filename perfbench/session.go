package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	icc "repro"
)

// session is one live instance of a step workload: a world, each rank's
// recipe state, and the next step index (inputs differ per step, so a
// stale output never passes the oracle).
type session struct {
	spec  stepSpec
	w     *world
	comms []*icc.Comm
	work  []rankWork
	logs  []*callLog
	next  int
}

// openSession builds the world, attaches the topology, prepares every
// rank and runs step 0 cold on all of them. It returns the set-up time:
// from the start of world construction to the last rank's end of step 0.
func openSession(spec stepSpec, m mode) (*session, float64, error) {
	t0 := now()
	w, err := newWorld(spec.transport, spec.p, m, nil, spec.opts...)
	if err != nil {
		return nil, 0, err
	}
	s := &session{spec: spec, w: w, comms: make([]*icc.Comm, spec.p), work: make([]rankWork, spec.p),
		logs: make([]*callLog, spec.p)}
	ends := make([]int64, spec.p)
	err = spmd(spec.p, func(r int) error {
		c := w.comms[r]
		if spec.clusters != nil {
			var err error
			if c, err = c.WithClusters(spec.clusters); err != nil {
				return err
			}
		}
		s.comms[r] = c
		wk, err := spec.newRank(c)
		if err != nil {
			return err
		}
		s.work[r] = wk
		s.logs[r] = &callLog{traced: m == modeTrace}
		s.runStep(r, 0)
		ends[r] = now()
		return s.logs[r].firstErr
	})
	s.next = 1
	end := ends[0]
	for _, e := range ends {
		if e > end {
			end = e
		}
	}
	if err != nil {
		return s, 0, err
	}
	return s, float64(end-t0) / 1e9, nil
}

// runStep runs step k on rank r: inputs, the timed recipe, the oracle.
// It returns the recipe's start and end stamps.
func (s *session) runStep(r, k int) (int64, int64) {
	l, wk := s.logs[r], s.work[r]
	l.startStep(k)
	wk.fill(k)
	t0 := now()
	wk.step(k, l)
	t1 := now()
	l.mismatch(wk.check(k))
	return t0, t1
}

func (s *session) close() { s.w.close() }

// resetLogs zeroes the per-rank call accounting before a measured phase.
func (s *session) resetLogs() {
	for _, l := range s.logs {
		*l = callLog{traced: l.traced, spans: l.spans[:0]}
	}
	if s.w.rec != nil {
		s.w.rec.reset()
	}
}

// run measures a closed loop of steps for d: every rank issues step k+1
// only after its step k returned. capHint pre-sizes the stamp arrays so
// the loop itself does not allocate.
func (s *session) run(d time.Duration, capHint int) phase {
	p := s.spec.p
	s.resetLogs()
	starts, ends := make([][]int64, p), make([][]int64, p)
	for r := range starts {
		starts[r], ends[r] = make([]int64, 0, capHint), make([]int64, 0, capHint)
	}
	first := s.next
	st := newStopper(d)
	mon := startSteal()
	u0 := snapshot()
	_ = spmd(p, func(r int) error {
		for i := 0; st.next(r, i); i++ {
			t0, t1 := s.runStep(r, first+i)
			starts[r], ends[r] = append(starts[r], t0), append(ends[r], t1)
			if s.logs[r].errMask != 0 {
				st.abort(i)
			}
		}
		return nil
	})
	u1 := snapshot()
	var ph phase
	ph.steal = mon.finish()
	ph.account(u0, u1)
	ph.steps = len(starts[0])
	for r := range starts {
		if len(starts[r]) < ph.steps {
			ph.steps = len(starts[r])
		}
	}
	ph.spans = spansOf(starts, ends, ph.steps)
	ph.stamps = starts[0][:ph.steps]
	ph.addLogs(s.logs)
	ph.bytes = make([]int64, ph.steps)
	for i := range ph.bytes {
		ph.bytes[i] = s.work[0].payload(first + i)
	}
	s.next += ph.steps
	return ph
}

// heapProbes is how many step boundaries probeHeap samples. The TCP
// transport keeps each link's sent frames until the peer acknowledges
// them, every 16 frames, so the live heap at one boundary depends on
// where the last step fell in that cycle; the median over consecutive
// boundaries does not.
const heapProbes = 48

// probeHeap runs heapProbes further steps, all ranks joining after each,
// and sets ph.heapMiB to the median live heap over those boundaries (see
// liveHeapMiB). The steps are checked and counted in ph like the timed
// ones; the world stays open, as it was during the timed phase.
func (s *session) probeHeap(ph *phase) {
	heaps := make([]float64, 0, heapProbes)
	// Of the stamp arrays only starts[0], as ph.stamps, is still reachable.
	own := words(ph.spans, heaps) + words(ph.stamps, ph.bytes)
	for i := 0; i < heapProbes; i++ {
		k := s.next
		_ = spmd(s.spec.p, func(r int) error {
			s.runStep(r, k)
			return nil
		})
		s.next++
		heaps = append(heaps, liveHeapMiB(own))
	}
	// The logs have counted since run began; recount them with the probes.
	ph.attempted, ph.failed = 0, 0
	ph.addLogs(s.logs)
	ph.heapMiB, ph.heapN = median(heaps), len(heaps)
}

// runFixed runs exactly n steps (the equivalence probe).
func (s *session) runFixed(n int) error {
	s.resetLogs()
	first := s.next
	err := spmd(s.spec.p, func(r int) error {
		for i := 0; i < n; i++ {
			s.runStep(r, first+i)
		}
		return s.logs[r].firstErr
	})
	s.next += n
	return err
}

// setupStep opens sessions as timeSetups directs and keeps the last one.
// Failures of the cold steps count like any other failed call.
func setupStep(spec stepSpec, m mode) (*session, []float64, int64, int64, error) {
	var attempted, failed int64
	var s *session
	times, err := timeSetups(func() (float64, error) {
		if s != nil {
			s.close()
		}
		var t float64
		var err error
		s, t, err = openSession(spec, m)
		if s != nil {
			for _, l := range s.logs {
				if l != nil {
					attempted += l.attempted
					failed += l.failed
				}
			}
		}
		return t, err
	})
	if err != nil {
		if s != nil {
			s.close()
		}
		return nil, nil, attempted, failed, fmt.Errorf("set-up: %w", err)
	}
	return s, times, attempted, failed, nil
}

// Set-up repeats: at least minSetups and at least setupTime of them, at
// most maxSetups. A set-up of a chan world takes a millisecond or two, so
// the time floor is what gives the median, and the steal share over the
// set-ups, enough samples.
const (
	minSetups = 15
	maxSetups = 400
	setupTime = time.Second
)

// timeSetups runs setup once untimed to warm the process (code pages, heap
// growth), then again after a collection each time until the limits above
// are met. It returns each timed set-up scaled by (1 − s), s being the
// host's steal share over the timed set-ups (see endToEnd).
func timeSetups(setup func() (float64, error)) ([]float64, error) {
	if _, err := setup(); err != nil {
		return nil, err
	}
	mon := startSteal()
	t0 := now()
	var times []float64
	for len(times) < maxSetups && (len(times) < minSetups || now()-t0 < int64(setupTime)) {
		runtime.GC()
		t, err := setup()
		if err != nil {
			mon.finish()
			return nil, err
		}
		times = append(times, t)
	}
	keep := 1 - stealShare(mon.finish(), t0, now())
	for i := range times {
		times[i] *= keep
	}
	return times, nil
}

var errNoSteps = errors.New("no step completed")
