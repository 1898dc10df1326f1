package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	icc "repro"
	"repro/internal/chantransport"
	"repro/internal/tcptransport"
	"repro/internal/transport"
)

// mode selects how a world's endpoints are instrumented.
type mode int

const (
	modeRaw   mode = iota // the transport's own endpoints: end-to-end runs
	modeCount             // recording wrapper with spans off: call counts only
	modeTrace             // recording wrapper with spans on, plus call spans
)

// epoch is the origin of every time stamp the benchmark records.
var epoch = time.Now()

// now returns nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// recvTimeout bounds every receive, so a deadlocked or broken run ends in
// an error well inside the benchmark's time limit instead of hanging.
const recvTimeout = 20 * time.Second

// world is one set of connected endpoints with a communicator per rank.
type world struct {
	comms []*icc.Comm
	rec   *recorder // nil in modeRaw
	tcp   []*tcptransport.Endpoint
	eps   []transport.Endpoint
}

// newWorld builds a p-rank world on the named transport ("chan" or "tcp").
// wrap, when non-nil, is applied to each transport endpoint before the
// recording wrapper (the recovery workload's fault injector).
func newWorld(tr string, p int, m mode, wrap func(transport.Endpoint) transport.Endpoint, opts ...icc.Option) (*world, error) {
	w := &world{eps: make([]transport.Endpoint, p)}
	switch tr {
	case "chan":
		cw, err := chantransport.NewWorld(p, chantransport.WithRecvTimeout(recvTimeout))
		if err != nil {
			return nil, err
		}
		for r := 0; r < p; r++ {
			ep, err := cw.Endpoint(r)
			if err != nil {
				return nil, err
			}
			w.eps[r] = ep
		}
	case "tcp":
		eps, err := tcptransport.NewLocalWorld(p, tcptransport.WithRecvTimeout(recvTimeout))
		if err != nil {
			return nil, err
		}
		w.tcp = eps
		for r, ep := range eps {
			w.eps[r] = ep
		}
	default:
		return nil, fmt.Errorf("perfbench: unknown transport %q", tr)
	}
	if wrap != nil {
		for r := range w.eps {
			w.eps[r] = wrap(w.eps[r])
		}
	}
	if m != modeRaw {
		w.rec = newRecorder(p, m == modeTrace)
		for r := range w.eps {
			ep, _, err := wrapEndpoint(w.eps[r], w.rec)
			if err != nil {
				w.close()
				return nil, err
			}
			w.eps[r] = ep
		}
	}
	w.comms = make([]*icc.Comm, p)
	for r := range w.eps {
		c, err := icc.New(w.eps[r], opts...)
		if err != nil {
			w.close()
			return nil, err
		}
		w.comms[r] = c
	}
	return w, nil
}

// close releases every endpoint; close errors of a finished world carry
// no information the run needs.
func (w *world) close() {
	for _, ep := range w.eps {
		_ = ep.Close()
	}
}

// reconnects sums the tcp endpoints' healed connection drops.
func (w *world) reconnects() int64 {
	var n int64
	for _, ep := range w.tcp {
		n += ep.Reconnects()
	}
	return n
}

// planStats sums the communicators' plan-cache counters and planner calls.
func planStats(comms []*icc.Comm) (icc.PlanCacheStats, int64) {
	var s icc.PlanCacheStats
	var planner int64
	for _, c := range comms {
		st := c.PlanCacheStats()
		s.Entries += st.Entries
		s.Hits += st.Hits
		s.Misses += st.Misses
		planner += c.PlannerCalls()
	}
	return s, planner
}

// spmd runs fn on p goroutines, one per rank, and waits for all of them.
func spmd(p int, fn func(r int) error) error {
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// callKind names a public communicator call of a recipe.
type callKind uint8

const (
	kAllReduce callKind = iota
	kBcast
	kReduce
	kBarrier
	kPersistent // AllReduceInit handle: Start + Wait
	kIAllReduce // IAllReduce + Wait
	kReduceScatter
	kCollect
	kAllToAllv
	kCollectv
	kIAllToAll // IAllToAll + Wait
	kShrink
	kArmed // the all-reduce a fail-stop is armed in
	nKinds
)

var kindNames = [nKinds]string{"allreduce", "bcast", "reduce", "barrier", "persistent_allreduce", "iallreduce",
	"reducescatter", "collect", "alltoallv", "collectv", "ialltoall", "shrink", "allreduce_failstop"}

// phaseKind names the sub-phases of a persistent or non-blocking call.
type phaseKind uint8

const (
	phPersistentStart phaseKind = iota
	phPersistentWait
	phRequestIssue
	phRequestWait
	nPhases
)

var phaseNames = [nPhases]string{"icc.persistent.start_us", "icc.persistent.wait_us", "icc.request.issue_us", "icc.request.wait_us"}

// callSpan is a traced public call, with what the model ledger needs.
type callSpan struct {
	cspan
	idx   uint8 // position in the step's recipe
	p     int16 // communicator size
	bytes int32 // vector length the planner sees
}

// callLog is one rank's call accounting. Counting is always on; spans are
// kept only when traced.
type callLog struct {
	traced    bool
	step      int32
	idx       uint8
	attempted int64
	failed    int64
	errMask   uint64 // calls of the current step that returned an error
	firstErr  error
	spans     []callSpan
	phases    [nPhases][]int64 // durations, ns
}

func (l *callLog) begin() int64 {
	if !l.traced {
		return 0
	}
	return now()
}

// done accounts one call. p and n feed the model ledger.
func (l *callLog) done(k callKind, t0 int64, p, n int, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		l.errMask |= 1 << (l.idx & 63)
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s (step %d): %w", kindNames[k], l.step, err)
		}
	}
	if l.traced {
		l.spans = append(l.spans, callSpan{cspan: cspan{start: t0, end: now(), step: l.step, kind: k},
			idx: l.idx, p: int16(p), bytes: int32(n)})
	}
	l.idx++
}

func (l *callLog) phase(ph phaseKind, t0 int64) {
	if l.traced {
		l.phases[ph] = append(l.phases[ph], now()-t0)
	}
}

// mismatch accounts calls whose output the oracle rejected; mask has bit i
// set for the step's i-th call. A call that already failed with an error
// is not counted twice.
func (l *callLog) mismatch(mask uint64) {
	mask &^= l.errMask
	if mask != 0 && l.firstErr == nil {
		l.firstErr = fmt.Errorf("step %d: wrong output from calls %b of the recipe", l.step, mask)
	}
	for ; mask != 0; mask &= mask - 1 {
		l.failed++
	}
}

func (l *callLog) startStep(k int) {
	l.step, l.idx, l.errMask = int32(k), 0, 0
}

// usage is a snapshot of process resource counters.
type usage struct {
	wall               time.Time
	cpu                time.Duration
	mallocs, allocated uint64
	gcs                uint32
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return usage{wall: time.Now(), cpu: cpu, mallocs: ms.Mallocs, allocated: ms.TotalAlloc, gcs: ms.NumGC}
}

// liveHeapMiB forces collections and returns the bytes of live heap
// objects (HeapAlloc right after a collection; HeapInuse would add span
// fragmentation, which varies from run to run), less own: the bytes of
// the benchmark's per-step records, whose size follows the step count. The
// second collection also empties the sync.Pool victim caches, whose
// contents depend on where the last step happened to stop.
func liveHeapMiB(own int64) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-own) / (1 << 20)
}

// words is the heap size of 8-byte-element slices: the runtime rounds an
// allocation above 32 KiB up to whole 8 KiB pages.
func words[T int64 | float64](ss ...[]T) int64 {
	var n int64
	for _, s := range ss {
		b := 8 * int64(cap(s))
		if b > 32<<10 {
			b = (b + 8<<10 - 1) &^ (8<<10 - 1)
		}
		n += b
	}
	return n
}

// phase is the outcome of one measured stretch of steps or cycles.
type phase struct {
	steps      int
	bytes      []int64   // per step, user payload bytes
	spans      []float64 // per step, µs, first rank's start to last rank's end
	stamps     []int64   // per step, ns, when it started
	steal      []stealSample
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
	heapMiB    float64
	heapN      int // live-heap samples behind heapMiB
	attempted  int64
	failed     int64
	firstErr   error
}

func (ph *phase) account(u0, u1 usage) {
	ph.wall = u1.wall.Sub(u0.wall)
	ph.cpu = u1.cpu - u0.cpu
	ph.mallocs = u1.mallocs - u0.mallocs
	ph.allocBytes = u1.allocated - u0.allocated
	ph.gcs = u1.gcs - u0.gcs
}

func (ph *phase) addLogs(logs []*callLog) {
	for _, l := range logs {
		ph.attempted += l.attempted
		ph.failed += l.failed
		if ph.firstErr == nil {
			ph.firstErr = l.firstErr
		}
	}
}

// spansOf turns per-rank step start/end stamps into step spans in µs.
func spansOf(starts, ends [][]int64, steps int) []float64 {
	out := make([]float64, steps)
	for k := 0; k < steps; k++ {
		lo, hi := starts[0][k], ends[0][k]
		for r := 1; r < len(starts); r++ {
			if starts[r][k] < lo {
				lo = starts[r][k]
			}
			if ends[r][k] > hi {
				hi = ends[r][k]
			}
		}
		out[k] = float64(hi-lo) / 1e3
	}
	return out
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func nsToUs(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e3
	}
	return out
}

// stopper ends a closed-loop run of SPMD steps at the same step on every
// rank. Rank 0 checks the deadline before each of its steps and, once it
// has passed, makes that step the last. No rank can have started a later
// step by then: every recipe contains a call whose result depends on rank
// 0's contribution to the current step.
type stopper struct {
	deadline time.Time
	stopAt   atomic.Int64
}

func newStopper(d time.Duration) *stopper {
	s := &stopper{deadline: time.Now().Add(d)}
	s.stopAt.Store(1 << 62)
	return s
}

// next reports whether rank r may run step k.
func (s *stopper) next(r, k int) bool {
	if int64(k) >= s.stopAt.Load() {
		return false
	}
	if r == 0 && !time.Now().Before(s.deadline) {
		s.stopAt.Store(int64(k + 1))
	}
	return true
}

// abort makes step k the last one any rank starts (after an error).
func (s *stopper) abort(k int) {
	for {
		cur := s.stopAt.Load()
		if int64(k+1) >= cur || s.stopAt.CompareAndSwap(cur, int64(k+1)) {
			return
		}
	}
}
