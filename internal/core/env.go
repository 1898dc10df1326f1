// Package core implements the paper's collective communication algorithms:
// the four short-vector primitives (MST broadcast, combine-to-one, scatter,
// gather — §4.1), the two long-vector bucket primitives (collect and
// distributed combine — §4.2), the derived short and long algorithms of §5,
// and the general hybrid algorithms of §6 driven by the Fig. 3 template.
//
// Every algorithm is written against a member list — an ordered array of
// transport ranks giving the logical-to-physical mapping (§9) — so the same
// code serves whole-machine collectives, row/column collectives inside a
// hybrid stage, and user-defined group collectives.
package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/model"
	"repro/internal/transport"
)

// env is the execution context of one collective invocation on one group:
// the transport endpoint, the group's member list and this node's logical
// index in it, the tag namespace for the invocation, and the machine
// parameters used to charge γ and per-stage software overheads in
// simulation.
type env struct {
	ep      transport.Endpoint
	members []int // members[i] = transport rank of logical node i
	me      int   // my logical index
	coll    uint32
	carry   bool // endpoint transports payload bytes
	mach    model.Machine
	hasMach bool
	// phaseOff offsets every phase this env emits, so that the stages of a
	// hierarchical collective — each of which runs a complete flat
	// collective with its own phase numbering — occupy disjoint tag ranges.
	phaseOff uint32
	// unstriped disables the striped leader phase of the hierarchical
	// all-reduce, forcing the reduce/broadcast fallback (for comparison
	// sweeps).
	unstriped bool
	// rec, when non-nil, switches the env into plan-recording mode: every
	// send, receive, combine, copy and allocation is captured as a Plan
	// step instead of being executed. The algorithms above this layer are
	// data-oblivious, so the recorded control flow is the one execution
	// will follow.
	rec *planRec
}

func (e *env) p() int { return len(e.members) }

// tag builds the message tag for a phase and step of this invocation.
func (e *env) tag(phase uint32, step int) transport.Tag {
	return transport.Compose(e.coll, e.phaseOff+phase, uint32(step))
}

// send transmits n bytes of p (which may be nil in timing-only mode) to
// logical node to.
func (e *env) send(to int, tag transport.Tag, p []byte, n int) error {
	rank := e.members[to]
	if e.rec != nil {
		e.rec.add(step{op: opSend, peer: rank, tag: tag, a: e.rec.ref(p), n: n})
		return nil
	}
	if e.carry {
		return e.fail(e.ep.Send(rank, tag, p[:n]))
	}
	if ss, ok := e.ep.(transport.SizeSender); ok {
		return e.fail(ss.SendSize(rank, tag, n))
	}
	return e.fail(e.ep.Send(rank, tag, make([]byte, n)))
}

// fail converts a failed collective step into a world abort (see
// transport.AbortOnError): the peers blocked on this rank's contribution
// return promptly instead of waiting out their receive timeouts. The error
// is returned unchanged.
func (e *env) fail(err error) error {
	if err == nil {
		return nil
	}
	return transport.AbortOnError(e.ep, err)
}

// recv receives exactly n bytes from logical node from into p.
func (e *env) recv(from int, tag transport.Tag, p []byte, n int) error {
	rank := e.members[from]
	if e.rec != nil {
		e.rec.add(step{op: opRecv, peer: rank, tag: tag, a: e.rec.ref(p), n: n})
		return nil
	}
	var got int
	var err error
	if e.carry {
		got, err = e.ep.Recv(rank, tag, p[:n])
	} else if ss, ok := e.ep.(transport.SizeSender); ok {
		got, err = ss.RecvSize(rank, tag, n)
	} else {
		got, err = e.ep.Recv(rank, tag, make([]byte, n))
	}
	if err != nil {
		return e.fail(err)
	}
	if got != n {
		return e.fail(fmt.Errorf("%w: core: logical %d received %d bytes from %d, want %d (tag %#x)", transport.ErrTruncate, e.me, got, from, n, uint32(tag)))
	}
	return nil
}

// sendRecv simultaneously sends sn bytes of sp to logical node to and
// receives rn bytes from logical node from into rp.
func (e *env) sendRecv(to int, stag transport.Tag, sp []byte, sn int, from int, rtag transport.Tag, rp []byte, rn int) error {
	toRank, fromRank := e.members[to], e.members[from]
	if e.rec != nil {
		e.rec.add(step{
			op:   opSendRecv,
			peer: toRank, tag: stag, a: e.rec.ref(sp), n: sn,
			peer2: fromRank, tag2: rtag, b: e.rec.ref(rp), n2: rn,
		})
		return nil
	}
	var got int
	var err error
	if e.carry {
		got, err = e.ep.SendRecv(toRank, stag, sp[:sn], fromRank, rtag, rp[:rn])
	} else if ss, ok := e.ep.(transport.SizeSender); ok {
		got, err = ss.SendRecvSize(toRank, stag, sn, fromRank, rtag, rn)
	} else {
		got, err = e.ep.SendRecv(toRank, stag, make([]byte, sn), fromRank, rtag, make([]byte, rn))
	}
	if err != nil {
		return e.fail(err)
	}
	if got != rn {
		return e.fail(fmt.Errorf("%w: core: logical %d received %d bytes from %d, want %d (tag %#x)", transport.ErrTruncate, e.me, got, from, rn, uint32(rtag)))
	}
	return nil
}

// copyb copies src into dst in carrying mode; it is free in the model, so
// no time is charged (the paper's algorithms are arranged so data lands in
// place).
func (e *env) copyb(dst, src []byte) {
	if e.rec != nil {
		n := len(dst)
		if len(src) < n {
			n = len(src)
		}
		if n > 0 {
			e.rec.add(step{op: opCopy, a: e.rec.ref(dst), b: e.rec.ref(src), n: n})
		}
		return
	}
	if e.carry {
		copy(dst, src)
	}
}

// combine applies dst ⊕= src over n bytes of elements and charges nγ of
// virtual compute time.
func (e *env) combine(dt datatype.Type, op datatype.Op, dst, src []byte, n int) error {
	if e.rec != nil {
		e.rec.add(step{op: opCombine, a: e.rec.ref(dst), b: e.rec.ref(src), n: n})
		return nil
	}
	if e.carry {
		if err := datatype.Apply(dt, op, dst[:n], src[:n]); err != nil {
			return e.fail(err)
		}
	}
	if e.hasMach {
		transport.Elapse(e.ep, float64(n)*e.mach.Gamma)
	}
	return nil
}

// stepOverhead charges the per-recursion-level software cost of the
// short-vector primitives (§7.2: "recursive function calls, which carry a
// measurable overhead") when a machine model is attached. The MST
// primitives call it once per tree level a node engages in; the flat
// bucket loops do not pay it, matching the cost model.
func (e *env) stepOverhead() {
	if e.rec != nil {
		e.rec.add(step{op: opElapse})
		return
	}
	if e.hasMach && e.mach.StepOverhead > 0 {
		transport.Elapse(e.ep, e.mach.StepOverhead)
	}
}

// dimEnv restricts the environment to this node's group in logical
// dimension d of shape s: the members sharing every other coordinate. The
// returned env's member list maps the dimension's logical indices 0..Size-1
// to transport ranks, and phase disambiguates its messages.
func (e *env) dimEnv(d model.Dim) env {
	x := (e.me / d.Stride) % d.Size
	base := e.me - x*d.Stride
	members := make([]int, d.Size)
	for t := 0; t < d.Size; t++ {
		members[t] = e.members[base+t*d.Stride]
	}
	return env{
		ep: e.ep, members: members, me: x,
		coll: e.coll, carry: e.carry, mach: e.mach, hasMach: e.hasMach,
		phaseOff: e.phaseOff, unstriped: e.unstriped, rec: e.rec,
	}
}
