package main

import (
	"errors"
	"fmt"
	"time"

	icc "repro"
	"repro/internal/faultnet"
	"repro/internal/transport"
)

// recovery-chan: each cycle builds a fresh chan world (a dead chan rank
// cannot be revived), runs a verified warm-up all-reduce with the fault
// schedule disarmed, arms a fail-stop at a seeded victim and op index,
// and has the survivors detect the abort, Shrink, and run a verified
// all-reduce and broadcast on the successor. tcp recovery is not measured
// here; see README.md.

const (
	recP     = 8
	recCount = 128 // float64 elements: 1 KiB
)

// recParams draws cycle k's victim, fail-stop op index and successor
// broadcast root from the seed. Every rank performs at least two transport
// operations in an all-reduce, so an op index in {0, 1} always fires inside
// the armed call.
func recParams(seed int64, k int) (victim, op, root int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return int(x % recP), int(x>>8) % 2, int(x>>16) % (recP - 1)
}

// cycle is the outcome of one recovery cycle.
type cycle struct {
	arm       int64     // ns
	span      float64   // µs, arming to the last survivor's finish
	detect    []float64 // µs, arming to each survivor's error
	shrink    []float64 // µs per survivor
	firstCall []float64 // µs per survivor, successor all-reduce
	injected  int64
	logs      []*callLog
	rec       *recorder // nil unless traced
	stats     icc.PlanCacheStats
	planner   int64
}

// recBufs is one rank's vectors for a cycle.
type recBufs struct{ send, recv, bc []byte }

func newRecBufs() recBufs {
	return recBufs{send: make([]byte, 8*recCount), recv: make([]byte, 8*recCount), bc: make([]byte, 8*recCount)}
}

// warmup runs the verified, fault-free all-reduce of cycle k on every rank.
func warmup(w *world, logs []*callLog, bufs []recBufs, k int) error {
	return spmd(recP, func(r int) error {
		l, b, c := logs[r], bufs[r], w.comms[r]
		l.startStep(k)
		fillSmall(b.send, recCount, r, k, 0)
		t := l.begin()
		l.done(kAllReduce, t, recP, 8*recCount, c.AllReduce(b.send, b.recv, recCount, icc.Float64, icc.Sum))
		if !sumOK(b.recv, recCount, recP, k, 0) {
			l.mismatch(1)
		}
		return nil
	})
}

func newLogs(p int, w *world) []*callLog {
	logs := make([]*callLog, p)
	for r := range logs {
		logs[r] = &callLog{traced: w.rec != nil && w.rec.spans}
	}
	return logs
}

// runCycle runs recovery cycle k on a world it closes before returning.
func runCycle(seed int64, k int, m mode) (*cycle, error) {
	victim, op, root := recParams(seed, k)
	inj := faultnet.New(faultnet.Config{FailStop: map[int]int{victim: op}})
	inj.SetArmed(false)
	w, err := newWorld("chan", recP, m, func(ep transport.Endpoint) transport.Endpoint { return inj.Wrap(ep) })
	if err != nil {
		return nil, err
	}
	defer w.close()
	cy := &cycle{logs: newLogs(recP, w), rec: w.rec,
		detect: make([]float64, 0, recP), shrink: make([]float64, 0, recP), firstCall: make([]float64, 0, recP)}
	bufs := make([]recBufs, recP)
	for r := range bufs {
		bufs[r] = newRecBufs()
	}
	if err := warmup(w, cy.logs, bufs, k); err != nil {
		return cy, err
	}
	want := make([]int, 0, recP-1)
	for r := 0; r < recP; r++ {
		if r != victim {
			want = append(want, r)
		}
	}
	detect, shrink, first, ends := make([]int64, recP), make([]int64, recP), make([]int64, recP), make([]int64, recP)
	arm := now()
	inj.SetArmed(true)
	_ = spmd(recP, func(r int) error {
		l, b, c := cy.logs[r], bufs[r], w.comms[r]
		fillSmall(b.send, recCount, r, k, 1)
		t := l.begin()
		err := c.AllReduce(b.send, b.recv, recCount, icc.Float64, icc.Sum)
		if r == victim {
			if !errors.Is(err, faultnet.ErrInjected) {
				err = fmt.Errorf("victim %d: armed fail-stop did not fire (err %v)", r, err)
			} else {
				err = nil
			}
			l.done(kArmed, t, recP, 8*recCount, err)
			return nil
		}
		if err == nil {
			// The victim died after its contribution left: this survivor's
			// call completed and the failure shows on the next one.
			err = c.AllReduce(b.send, b.recv, recCount, icc.Float64, icc.Sum)
			if err == nil {
				l.done(kArmed, t, recP, 8*recCount, errors.New("fail-stop never observed"))
				return nil
			}
		}
		detect[r] = now() - arm
		l.done(kArmed, t, recP, 8*recCount, nil)

		t = l.begin()
		t0 := now()
		s, err := c.Shrink()
		shrink[r] = now() - t0
		if err == nil && !equalInts(s.Members(), want) {
			err = fmt.Errorf("successor members %v, want %v", s.Members(), want)
		}
		l.done(kShrink, t, recP-1, 0, err)
		if err != nil {
			return nil
		}

		sr := s.Rank()
		fillSmall(b.send, recCount, sr, k, 2)
		t = l.begin()
		t0 = now()
		err = s.AllReduce(b.send, b.recv, recCount, icc.Float64, icc.Sum)
		first[r] = now() - t0
		l.done(kAllReduce, t, recP-1, 8*recCount, err)
		if err == nil && !sumOK(b.recv, recCount, recP-1, k, 2) {
			l.mismatch(1 << (l.idx - 1))
		}
		if sr == root {
			fillSmall(b.bc, recCount, sr, k, 3)
		}
		t = l.begin()
		err = s.Bcast(b.bc, recCount, icc.Float64, root)
		l.done(kBcast, t, recP-1, 8*recCount, err)
		if err == nil && !valsOK(b.bc, recCount, root, k, 3) {
			l.mismatch(1 << (l.idx - 1))
		}
		ends[r] = now()
		return nil
	})
	end := arm
	for r := 0; r < recP; r++ {
		if r == victim {
			continue
		}
		if ends[r] > end {
			end = ends[r]
		}
		cy.detect = append(cy.detect, float64(detect[r])/1e3)
		cy.shrink = append(cy.shrink, float64(shrink[r])/1e3)
		cy.firstCall = append(cy.firstCall, float64(first[r])/1e3)
	}
	cy.arm, cy.span = arm, float64(end-arm)/1e3
	cy.stats, cy.planner = planStats(w.comms)
	cy.injected = inj.Injected()
	if cy.injected != 1 {
		l := cy.logs[victim]
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("cycle %d: faultnet injected %d faults, want 1", k, cy.injected)
		}
	}
	return cy, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recoverySetup builds a world and runs the recipe's fault-free calls
// cold: the verified all-reduce and a verified broadcast.
func recoverySetup(m mode) (float64, []*callLog, *world, error) {
	t0 := now()
	w, err := newWorld("chan", recP, m, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	defer w.close()
	logs := newLogs(recP, w)
	bufs := make([]recBufs, recP)
	for r := range bufs {
		bufs[r] = newRecBufs()
	}
	if err := warmup(w, logs, bufs, 0); err != nil {
		return 0, logs, w, err
	}
	err = spmd(recP, func(r int) error {
		l, b := logs[r], bufs[r]
		if r == 0 {
			fillSmall(b.bc, recCount, 0, 0, 3)
		}
		t := l.begin()
		l.done(kBcast, t, recP, 8*recCount, w.comms[r].Bcast(b.bc, recCount, icc.Float64, 0))
		if !valsOK(b.bc, recCount, 0, 0, 3) {
			l.mismatch(1 << (l.idx - 1))
		}
		return l.firstErr
	})
	return float64(now()-t0) / 1e9, logs, w, err
}

// recoveryRun is the measured loop of recovery cycles.
type recoveryRun struct {
	phase
	detect, shrink, firstCall []float64
	injected                  int64
	cycles                    []*cycle // kept only when traced
}

func runRecovery(seed int64, first int, d time.Duration, m mode) (recoveryRun, int) {
	var rr recoveryRun
	mon := startSteal()
	u0 := snapshot()
	deadline := time.Now().Add(d)
	k := first
	for ; time.Now().Before(deadline); k++ {
		cy, err := runCycle(seed, k, m)
		if cy == nil {
			rr.attempted++
			rr.failed++
			if rr.firstErr == nil {
				rr.firstErr = err
			}
			break
		}
		rr.addLogs(cy.logs)
		if err != nil && rr.firstErr == nil {
			rr.firstErr = err
		}
		rr.spans = append(rr.spans, cy.span)
		rr.stamps = append(rr.stamps, cy.arm)
		rr.detect = append(rr.detect, cy.detect...)
		rr.shrink = append(rr.shrink, cy.shrink...)
		rr.firstCall = append(rr.firstCall, cy.firstCall...)
		rr.injected += cy.injected
		rr.bytes = append(rr.bytes, 3*8*recCount)
		if m == modeTrace {
			rr.cycles = append(rr.cycles, cy)
		}
		if err != nil {
			break
		}
	}
	u1 := snapshot()
	rr.steal = mon.finish()
	rr.account(u0, u1)
	rr.steps = len(rr.spans)
	rr.heapMiB, rr.heapN = liveHeapMiB(words(rr.spans, rr.detect, rr.shrink, rr.firstCall)+words(rr.stamps, rr.bytes)), 1
	return rr, k
}
