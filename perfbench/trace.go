package main

// The recording endpoint wrapper: it sits between a communicator and its
// transport endpoint, counts every Send/Recv/SendRecv (and the size-only
// variants of timing-only transports) and, with spans on, records each one
// as a span in memory. It forwards exactly the optional capability
// interfaces the inner endpoint implements, so the library takes the same
// decisions through the wrapper as without it.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/transport"
)

// opKind names a transport operation.
type opKind uint8

const (
	opSend opKind = iota
	opRecv
	opSendRecv
	nOps
)

var opNames = [nOps]string{"send", "recv", "sendrecv"}

// tspan is one transport operation, stamped in nanoseconds since epoch.
type tspan struct {
	start, end int64
	bytes      int64 // bytes sent (Send, SendRecv) or received (Recv)
	op         opKind
}

// cspan is one public call on a communicator, recorded by the workload
// around the call. A call kind with sub-phases (a request's issue and wait)
// records one span for the whole call and keeps the phase times separately.
type cspan struct {
	start, end int64
	step       int32
	kind       callKind
}

// rankLog holds one rank's counters and spans. Transport operations of a
// rank can come from the rank's goroutine and its communicator's progress
// goroutine, so appends take the mutex.
type rankLog struct {
	mu    sync.Mutex
	count [nOps]int64
	bytes int64
	ops   []tspan
}

// recorder is the in-memory trace of one world.
type recorder struct {
	spans bool
	ranks []*rankLog
}

func newRecorder(p int, spans bool) *recorder {
	r := &recorder{spans: spans, ranks: make([]*rankLog, p)}
	for i := range r.ranks {
		r.ranks[i] = &rankLog{}
	}
	return r
}

// counts returns the summed per-op call counts and bytes over all ranks.
func (r *recorder) counts() (c [nOps]int64, bytes int64) {
	for _, l := range r.ranks {
		l.mu.Lock()
		for i := range c {
			c[i] += l.count[i]
		}
		bytes += l.bytes
		l.mu.Unlock()
	}
	return c, bytes
}

// reset drops every counter and span, keeping the slices' capacity.
func (r *recorder) reset() {
	for _, l := range r.ranks {
		l.mu.Lock()
		l.count = [nOps]int64{}
		l.bytes = 0
		l.ops = l.ops[:0]
		l.mu.Unlock()
	}
}

// Endpoint is the recording wrapper around one rank's endpoint. It
// implements transport.Endpoint only; wrapEndpoint embeds it in a type that
// adds the inner endpoint's optional interfaces.
type Endpoint struct {
	inner transport.Endpoint
	rec   *recorder
	log   *rankLog
}

func (e *Endpoint) record(op opKind, t0 int64, n int) {
	var t1 int64
	if e.rec.spans {
		t1 = now()
	}
	l := e.log
	l.mu.Lock()
	l.count[op]++
	l.bytes += int64(n)
	if e.rec.spans {
		l.ops = append(l.ops, tspan{start: t0, end: t1, bytes: int64(n), op: op})
	}
	l.mu.Unlock()
}

func (e *Endpoint) begin() int64 {
	if e.rec.spans {
		return now()
	}
	return 0
}

// Rank returns the inner endpoint's rank.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size returns the inner endpoint's world size.
func (e *Endpoint) Size() int { return e.inner.Size() }

// Close closes the inner endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// Send records and forwards one send.
func (e *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	t0 := e.begin()
	err := e.inner.Send(to, tag, p)
	e.record(opSend, t0, len(p))
	return err
}

// Recv records and forwards one receive.
func (e *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	t0 := e.begin()
	n, err := e.inner.Recv(from, tag, p)
	e.record(opRecv, t0, n)
	return n, err
}

// SendRecv records and forwards one combined exchange.
func (e *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	t0 := e.begin()
	n, err := e.inner.SendRecv(to, stag, sp, from, rtag, rp)
	e.record(opSendRecv, t0, len(sp))
	return n, err
}

// Capability forwarders, one per optional interface. Each holds the inner
// endpoint already asserted to that interface.

type aborterFwd struct{ a transport.Aborter }

func (f aborterFwd) Abort(reason error) { f.a.Abort(reason) }
func (f aborterFwd) AbortErr() error    { return f.a.AbortErr() }

type recovererFwd struct{ r transport.Recoverer }

func (f recovererFwd) Reset(failed []int) { f.r.Reset(failed) }
func (f recovererFwd) Failed() []int      { return f.r.Failed() }
func (f recovererFwd) Epoch() int         { return f.r.Epoch() }

type readmitterFwd struct{ r transport.Readmitter }

func (f readmitterFwd) Readmit(peer int) error             { return f.r.Readmit(peer) }
func (f readmitterFwd) AdoptEpoch(epoch int, failed []int) { f.r.AdoptEpoch(epoch, failed) }

type clockFwd struct{ c transport.Clock }

func (f clockFwd) Now() float64           { return f.c.Now() }
func (f clockFwd) Elapse(seconds float64) { f.c.Elapse(seconds) }

type carrierFwd struct{ d transport.DataCarrier }

func (f carrierFwd) CarriesData() bool { return f.d.CarriesData() }

// sizeFwd records the size-only operations of timing-only transports like
// the payload-carrying ones.
type sizeFwd struct {
	e *Endpoint
	s transport.SizeSender
}

func (f sizeFwd) SendSize(to int, tag transport.Tag, n int) error {
	t0 := f.e.begin()
	err := f.s.SendSize(to, tag, n)
	f.e.record(opSend, t0, n)
	return err
}

func (f sizeFwd) RecvSize(from int, tag transport.Tag, n int) (int, error) {
	t0 := f.e.begin()
	got, err := f.s.RecvSize(from, tag, n)
	f.e.record(opRecv, t0, got)
	return got, err
}

func (f sizeFwd) SendRecvSize(to int, stag transport.Tag, sn int, from int, rtag transport.Tag, rn int) (int, error) {
	t0 := f.e.begin()
	got, err := f.s.SendRecvSize(to, stag, sn, from, rtag, rn)
	f.e.record(opSendRecv, t0, sn)
	return got, err
}

// The structure hints icc.New reads off an endpoint.
type (
	machineHint   interface{ Machine() model.Machine }
	twoLevelHint  interface{ TwoLevel() model.TwoLevel }
	hierarchyHint interface{ Hierarchy() model.Hierarchy }
)

type machineFwd struct{ h machineHint }

func (f machineFwd) Machine() model.Machine { return f.h.Machine() }

type twoLevelFwd struct{ h twoLevelHint }

func (f twoLevelFwd) TwoLevel() model.TwoLevel { return f.h.TwoLevel() }

type hierarchyFwd struct{ h hierarchyHint }

func (f hierarchyFwd) Hierarchy() model.Hierarchy { return f.h.Hierarchy() }

// capability is one optional interface bit.
type capability uint16

const (
	capAborter capability = 1 << iota
	capRecoverer
	capReadmitter
	capClock
	capDataCarrier
	capSizeSender
	capMachine
	capTwoLevel
	capHierarchy
)

var capNames = []string{"Aborter", "Recoverer", "Readmitter", "Clock", "DataCarrier", "SizeSender", "Machine", "TwoLevel", "Hierarchy"}

func (c capability) String() string {
	var names []string
	for i, n := range capNames {
		if c&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return "{" + strings.Join(names, " ") + "}"
}

// capsOf reports which optional interfaces ep implements.
func capsOf(ep transport.Endpoint) capability {
	var c capability
	if _, ok := ep.(transport.Aborter); ok {
		c |= capAborter
	}
	if _, ok := ep.(transport.Recoverer); ok {
		c |= capRecoverer
	}
	if _, ok := ep.(transport.Readmitter); ok {
		c |= capReadmitter
	}
	if _, ok := ep.(transport.Clock); ok {
		c |= capClock
	}
	if _, ok := ep.(transport.DataCarrier); ok {
		c |= capDataCarrier
	}
	if _, ok := ep.(transport.SizeSender); ok {
		c |= capSizeSender
	}
	if _, ok := ep.(machineHint); ok {
		c |= capMachine
	}
	if _, ok := ep.(twoLevelHint); ok {
		c |= capTwoLevel
	}
	if _, ok := ep.(hierarchyHint); ok {
		c |= capHierarchy
	}
	return c
}

// The wrapper types, one per capability set an endpoint of this library
// has: the chan transport, the tcp transport, a faultnet wrapper over
// either, and the simulator.
type (
	wrapChan struct {
		*Endpoint
		aborterFwd
		recovererFwd
	}
	wrapTCP struct {
		*Endpoint
		aborterFwd
		recovererFwd
		readmitterFwd
	}
	wrapFault struct {
		*Endpoint
		aborterFwd
		recovererFwd
		readmitterFwd
		clockFwd
		carrierFwd
		sizeFwd
	}
	wrapSim struct {
		*Endpoint
		aborterFwd
		recovererFwd
		clockFwd
		carrierFwd
		sizeFwd
		machineFwd
		twoLevelFwd
		hierarchyFwd
	}
)

const (
	capsChan  = capAborter | capRecoverer
	capsTCP   = capsChan | capReadmitter
	capsFault = capsTCP | capClock | capDataCarrier | capSizeSender
	capsSim   = capsChan | capClock | capDataCarrier | capSizeSender | capMachine | capTwoLevel | capHierarchy
)

// wrapEndpoint wraps inner in a recording Endpoint logging to rec's rank
// slot. The result implements exactly the optional interfaces inner does;
// an endpoint whose capability set has no wrapper type is refused rather
// than silently narrowed, since a hidden capability changes what the
// library does.
func wrapEndpoint(inner transport.Endpoint, rec *recorder) (transport.Endpoint, *Endpoint, error) {
	e := &Endpoint{inner: inner, rec: rec, log: rec.ranks[inner.Rank()]}
	caps := capsOf(inner)
	var out transport.Endpoint
	switch caps {
	case 0:
		out = e
	case capsChan:
		out = wrapChan{e, aborterFwd{inner.(transport.Aborter)}, recovererFwd{inner.(transport.Recoverer)}}
	case capsTCP:
		out = wrapTCP{e, aborterFwd{inner.(transport.Aborter)}, recovererFwd{inner.(transport.Recoverer)},
			readmitterFwd{inner.(transport.Readmitter)}}
	case capsFault:
		out = wrapFault{e, aborterFwd{inner.(transport.Aborter)}, recovererFwd{inner.(transport.Recoverer)},
			readmitterFwd{inner.(transport.Readmitter)}, clockFwd{inner.(transport.Clock)},
			carrierFwd{inner.(transport.DataCarrier)}, sizeFwd{e, inner.(transport.SizeSender)}}
	case capsSim:
		out = wrapSim{e, aborterFwd{inner.(transport.Aborter)}, recovererFwd{inner.(transport.Recoverer)},
			clockFwd{inner.(transport.Clock)}, carrierFwd{inner.(transport.DataCarrier)},
			sizeFwd{e, inner.(transport.SizeSender)}, machineFwd{inner.(machineHint)},
			twoLevelFwd{inner.(twoLevelHint)}, hierarchyFwd{inner.(hierarchyHint)}}
	default:
		return nil, nil, fmt.Errorf("perfbench: no recording wrapper for %T with capabilities %v", inner, caps)
	}
	return out, e, nil
}

// contained returns, for each transport span of one rank, the index of the
// public call span that contains its start (or -1): the parent by rank and
// time containment, which also covers operations the progress goroutine
// runs on the rank's behalf. calls must be sorted by start.
func contained(calls []cspan, ops []tspan) []int {
	parent := make([]int, len(ops))
	for i, o := range ops {
		j := sort.Search(len(calls), func(j int) bool { return calls[j].start > o.start }) - 1
		if j >= 0 && o.start <= calls[j].end {
			parent[i] = j
		} else {
			parent[i] = -1
		}
	}
	return parent
}
