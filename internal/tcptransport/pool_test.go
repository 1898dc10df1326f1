package tcptransport

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestFrameLenLimit: a payload the 4-byte length field cannot describe is
// rejected with a descriptive error; the largest describable one passes.
func TestFrameLenLimit(t *testing.T) {
	for _, n := range []int{0, 1, 1 << 20, math.MaxUint32} {
		if err := checkFrameLen(n); err != nil {
			t.Errorf("checkFrameLen(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{math.MaxUint32 + 1, 1 << 33, math.MaxInt} {
		err := checkFrameLen(n)
		if err == nil || !strings.Contains(err.Error(), "frame limit") {
			t.Errorf("checkFrameLen(%d) = %v, want a frame-limit error", n, err)
		}
	}
}

// streamPattern fills p with bytes derived from the message index, so a
// message carrying another message's bytes (or stale pool contents) is
// caught at every byte.
func streamPattern(p []byte, i int) {
	for j := range p {
		p[j] = byte(i*131 + j*7 + j>>8)
	}
}

// TestPooledFramesSurviveRetransmission: the sender refills one source
// buffer for every message, so only the transport's own copy preserves a
// frame's content until the peer acknowledges it. Connections break from
// both sides mid-stream, forcing retransmission of unacknowledged frames
// across several size classes; every received byte is checked. A frame
// buffer returned to the pool before its ack would be reused by a later
// send (or by the receiver) and retransmit the wrong bytes.
func TestPooledFramesSurviveRetransmission(t *testing.T) {
	eps := localWorld(t, 2)
	sizes := []int{64, 100, 4 << 10, 64<<10 + 3, 1 << 20}
	const k = 240
	size := func(i int) int { return sizes[i%len(sizes)] }
	err := runAll(eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			src := make([]byte, 1<<20)
			for i := 0; i < k; i++ {
				if i > 0 && i%60 == 30 {
					eps[0].BreakConn(1) // sender-side break
				}
				p := src[:size(i)]
				streamPattern(p, i)
				if err := ep.Send(1, transport.Tag(i), p); err != nil {
					return fmt.Errorf("send %d: %w", i, err)
				}
			}
			return nil
		}
		buf := make([]byte, 1<<20)
		want := make([]byte, 1<<20)
		for i := 0; i < k; i++ {
			if i > 0 && i%60 == 0 {
				// Receiver-side break while the sender runs ahead: frames
				// in flight are lost and must come back from the
				// retransmit buffer.
				time.Sleep(2 * time.Millisecond)
				eps[1].BreakConn(0)
			}
			n, err := ep.Recv(0, transport.Tag(i), buf)
			if err != nil {
				return fmt.Errorf("recv %d: %w", i, err)
			}
			if n != size(i) {
				return fmt.Errorf("recv %d: %d bytes, want %d", i, n, size(i))
			}
			streamPattern(want[:n], i)
			for j := 0; j < n; j++ {
				if buf[j] != want[j] {
					return fmt.Errorf("recv %d: byte %d is %#x, want %#x", i, j, buf[j], want[j])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := eps[0].Reconnects() + eps[1].Reconnects(); r == 0 {
		t.Fatal("stream completed but no reconnect happened — the breaks did not exercise retransmission")
	}
}

// TestHotPathAllocs: in steady state a Send → Recv of 64 KiB or 1 MiB
// allocates under 1 KiB per operation: the sent frame, the received
// payload and the receive timer all come from pools.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	// AllocsPerRun measures with GOMAXPROCS=1; warm up under the same
	// setting, since a pooled buffer parked in another P's private slot
	// is invisible to Get and would count as a fresh allocation.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eps := localWorld(t, 2)
	for _, n := range []int{64 << 10, 1 << 20} {
		sb, rb := make([]byte, n), make([]byte, n)
		op := func() {
			if err := eps[0].Send(1, 1, sb); err != nil {
				t.Fatal(err)
			}
			if _, err := eps[1].Recv(0, 1, rb); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			op() // fill the pools, including frames still awaiting acks
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, op)
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		t.Logf("%d KiB Send→Recv: %.2f allocs/op, %.0f B/op", n>>10, allocs, bytes)
		if allocs >= 1 {
			t.Errorf("%d KiB Send→Recv: %.2f allocs/op, want under one", n>>10, allocs)
		}
		if bytes >= 1024 {
			t.Errorf("%d KiB Send→Recv: %.0f B/op allocated, want < 1 KiB", n>>10, bytes)
		}
	}
}
