package core

import (
	"repro/internal/datatype"
)

// The two long-vector primitives of §4.2. Both view the member list as a
// ring around which fixed-size buckets circulate: every node simultaneously
// sends to its right neighbour and receives from its left one, exploiting
// the machine's concurrent send+receive. Rightward traffic rides the
// forward channels and the single wrap-around message rides the otherwise
// idle reverse channels, so on a linear array no conflicts occur.

// bucketCollect is the ring collect: each member starts with its own
// segment in place (bytes [offs[me], offs[me+1]) of the coordinate range)
// and after p-1 bucket steps every member holds the whole range:
// (p-1)α + ((p-1)/p) nβ.
func bucketCollect(e *env, phase uint32, offs []int, buf []byte, base int) error {
	p := e.p()
	if p <= 1 {
		return nil
	}
	me := e.me
	right := (me + 1) % p
	left := (me + p - 1) % p
	sl := func(i int) []byte {
		if !e.carry {
			return nil
		}
		return buf[offs[i]-base : offs[i+1]-base]
	}
	for t := 0; t < p-1; t++ {
		sIdx := ((me-t)%p + p) % p
		rIdx := ((me-t-1)%p + p) % p
		tg := e.tag(phase, t)
		if err := e.sendRecv(right, tg, sl(sIdx), offs[sIdx+1]-offs[sIdx],
			left, tg, sl(rIdx), offs[rIdx+1]-offs[rIdx]); err != nil {
			return err
		}
	}
	return nil
}

// bucketReduceScatter is the bucket distributed global combine: buckets
// circulate the ring accumulating contributions, and after p-1 steps member
// i holds segment i of the fully combined vector, in place:
// (p-1)α + ((p-1)/p) n(β+γ). Every member's buf must hold its full-range
// contribution on entry; only the member's own segment is meaningful on
// return.
func bucketReduceScatter(e *env, phase uint32, offs []int, buf []byte, base int, dt datatype.Type, op datatype.Op) error {
	p := e.p()
	if p <= 1 {
		return nil
	}
	me := e.me
	right := (me + 1) % p
	left := (me + p - 1) % p
	sl := func(i int) []byte {
		if !e.carry {
			return nil
		}
		return buf[offs[i]-base : offs[i+1]-base]
	}
	maxSeg := 0
	for i := 0; i < p; i++ {
		if s := offs[i+1] - offs[i]; s > maxSeg {
			maxSeg = s
		}
	}
	s0, rel0 := e.detour(maxSeg)
	defer rel0()
	s1, rel1 := e.detour(maxSeg)
	defer rel1()
	scratch := [2][]byte{s0, s1}
	// First outgoing bucket: my raw contribution to segment me-1.
	sIdx := (me + p - 1) % p
	cur := sl(sIdx)
	curLen := offs[sIdx+1] - offs[sIdx]
	for t := 0; t < p-1; t++ {
		rIdx := ((me-t-2)%p + p) % p
		rLen := offs[rIdx+1] - offs[rIdx]
		rbuf := scratch[t%2]
		tg := e.tag(phase, t)
		if err := e.sendRecv(right, tg, cur, curLen, left, tg, rbuf, rLen); err != nil {
			return err
		}
		// Fold my own contribution into the passing bucket.
		if err := e.combine(dt, op, rbuf, sl(rIdx), rLen); err != nil {
			return err
		}
		cur, curLen = rbuf, rLen
	}
	// cur now holds segment me fully combined; land it in place.
	if e.carry && curLen > 0 {
		e.copyb(buf[offs[me]-base:offs[me+1]-base], cur[:curLen])
	}
	return nil
}
