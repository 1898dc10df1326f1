package transport

import (
	"math/bits"
	"sync"
	"time"
)

// Buffers for payloads and collective scratch come from one pool per
// power-of-two size class between minClass and maxClass; larger buffers are
// allocated outright and left to the garbage collector. The pools hold
// *[]byte so that putting a buffer back does not allocate. Reusing the
// buffers, rather than allocating one per message, keeps the byte path of a
// long-vector collective down to the bytes it moves (pMR's point for halo
// exchange).
const (
	minClass = 6  // 64 B
	maxClass = 22 // 4 MiB
)

var bufPools [maxClass + 1]sync.Pool

// sizeClass returns the class of buffers with room for n bytes.
func sizeClass(n int) int {
	if n > 1<<minClass {
		return bits.Len(uint(n - 1))
	}
	return minClass
}

// GetBuf returns a buffer of length n whose contents are unspecified. Its
// owner hands it back with PutBuf once nothing reads it any more; a buffer
// that is never put back is simply garbage collected.
func GetBuf(n int) *[]byte {
	c := sizeClass(n)
	if c > maxClass {
		b := make([]byte, n)
		return &b
	}
	if bp, _ := bufPools[c].Get().(*[]byte); bp != nil {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n, 1<<c)
	return &b
}

// CopyBuf returns a pooled copy of p, or nil when p is empty.
func CopyBuf(p []byte) *[]byte {
	if len(p) == 0 {
		return nil
	}
	bp := GetBuf(len(p))
	copy(*bp, p)
	return bp
}

// PutBuf returns buffers obtained from GetBuf to their pools; nils and
// buffers above the largest class are ignored. The caller must not use the
// buffers afterwards.
func PutBuf(bufs ...*[]byte) {
	for _, bp := range bufs {
		if bp == nil {
			continue
		}
		if c := sizeClass(cap(*bp)); c <= maxClass && cap(*bp) == 1<<c {
			bufPools[c].Put(bp)
		}
	}
}

// timerPool holds stopped timers whose channels are empty. Receives on one
// endpoint may overlap (a communicator's progress goroutine can still be
// draining an aborted request while the caller runs recovery), so timers
// are pooled rather than owned by an endpoint.
var timerPool sync.Pool

// StartTimer returns a timer that fires after d, reusing a pooled one.
func StartTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// StopTimer stops t and pools it when no value can reach its channel. A
// timer that already fired is dropped instead: with the pre-Go 1.23 timer
// semantics this module builds under, its value may still be in flight,
// and a later receive would mistake it for its own timeout.
func StopTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}
