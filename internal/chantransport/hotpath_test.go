package chantransport

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestPayloadSizes: payloads round-trip at the edges of the pooled size
// classes and beyond the largest, and a buffer reused from the pool never
// leaks bytes of an earlier, longer message.
func TestPayloadSizes(t *testing.T) {
	w := mustWorld(t, 2)
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	for _, n := range []int{1 << 20, 0, 1, 63, 64, 65, 1000, 1 << 22, 1<<22 + 1} {
		sb := make([]byte, n)
		for i := range sb {
			sb[i] = byte(i*7 + n)
		}
		rb := make([]byte, n+8)
		if err := ep0.Send(1, 1, sb); err != nil {
			t.Fatal(err)
		}
		got, err := ep1.Recv(0, 1, rb)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got != n || !bytes.Equal(rb[:n], sb) || !bytes.Equal(rb[n:], make([]byte, 8)) {
			t.Fatalf("n=%d: received %d bytes, payload mismatch", n, got)
		}
	}
}

// TestSendRecvFallbackFullQueue: with every pair queue of a ring filled
// before the exchange, SendRecv cannot enqueue inline and must fall back to
// a send goroutine; the ring still completes and each pair stays FIFO.
func TestSendRecvFallbackFullQueue(t *testing.T) {
	for _, p := range []int{2, 3, 8, 9} {
		p := p
		w := mustWorld(t, p, WithBuffer(1), WithRecvTimeout(10*time.Second))
		for r := 0; r < p; r++ {
			if err := mustEndpoint(t, w, r).Send((r+1)%p, 1, []byte{byte(r), 0}); err != nil {
				t.Fatal(err)
			}
		}
		// The inline path declines a full queue and leaves the message to
		// its caller.
		ep := mustEndpoint(t, w, 0)
		if done, err := ep.send(1%p, newMessage(2, []byte{0, 1}), false); done || err != nil {
			t.Fatalf("p=%d: send on a full queue: done=%v err=%v", p, done, err)
		}
		err := w.Run(func(ep *Endpoint) error {
			me, prev := ep.Rank(), (ep.Rank()+p-1)%p
			rb := make([]byte, 2)
			if _, err := ep.SendRecv((me+1)%p, 2, []byte{byte(me), 1}, prev, 1, rb); err != nil {
				return err
			}
			if !bytes.Equal(rb, []byte{byte(prev), 0}) {
				return fmt.Errorf("first message %v, want %v", rb, []byte{byte(prev), 0})
			}
			if _, err := ep.Recv(prev, 2, rb); err != nil {
				return err
			}
			if !bytes.Equal(rb, []byte{byte(prev), 1}) {
				return fmt.Errorf("second message %v, want %v", rb, []byte{byte(prev), 1})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestSendRecvFallbackAborted: a poison raised while SendRecv's fallback
// send is blocked on a full queue ends the exchange with the abort error.
func TestSendRecvFallbackAborted(t *testing.T) {
	w := mustWorld(t, 2, WithBuffer(1), WithRecvTimeout(10*time.Second))
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	if err := ep0.Send(1, 1, []byte{1}); err != nil { // fills 0 → 1; rank 1 never drains it
		t.Fatal(err)
	}
	if err := ep1.Send(0, 2, []byte{2}); err != nil { // the receive half completes at once
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ep0.SendRecv(1, 3, []byte{3}, 1, 2, make([]byte, 1))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("SendRecv returned with its send queue full: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	ep1.Abort(errors.New("rank 1 fails"))
	select {
	case err := <-done:
		var ae *transport.AbortError
		if !errors.As(err, &ae) || ae.Origin != 1 {
			t.Fatalf("want the abort raised by rank 1, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendRecv stayed blocked after the abort")
	}
}

// TestRecvNoStaleTimeout: a receive that timed out leaves nothing behind
// that a later, shorter wait could mistake for its own timeout.
func TestRecvNoStaleTimeout(t *testing.T) {
	const timeout = 200 * time.Millisecond
	w := mustWorld(t, 2, WithRecvTimeout(timeout))
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	buf := make([]byte, 1)
	for i := 0; i < 3; i++ {
		i := i
		if _, err := ep0.Recv(1, 1, buf); !errors.Is(err, transport.ErrTimeout) {
			t.Fatalf("round %d: want a timeout, got %v", i, err)
		}
		sent := make(chan error, 1)
		go func() {
			time.Sleep(timeout / 4)
			sent <- ep1.Send(0, 1, []byte{byte(i)})
		}()
		if _, err := ep0.Recv(1, 1, buf); err != nil {
			t.Fatalf("round %d: receive waiting %v of a %v timeout: %v", i, timeout/4, timeout, err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("round %d: got %d", i, buf[0])
		}
	}
}

// TestConcurrentRecvOneEndpoint: two goroutines receiving on one endpoint
// with timeouts armed — the caller, and a progress goroutine still
// draining a request when the caller aborts — share no timer state.
func TestConcurrentRecvOneEndpoint(t *testing.T) {
	const k = 200
	w := mustWorld(t, 3, WithBuffer(1), WithRecvTimeout(10*time.Second))
	ep0 := mustEndpoint(t, w, 0)
	var wg, received sync.WaitGroup
	errs := make([]error, 4)
	recvLoop := func(i, from int) {
		defer wg.Done()
		buf := make([]byte, 1)
		for j := 0; j < k; j++ {
			if _, err := ep0.Recv(from, 1, buf); err != nil {
				errs[i] = fmt.Errorf("receive %d from %d: %w", j, from, err)
				received.Done()
				return
			}
			if buf[0] != byte(j) {
				errs[i] = fmt.Errorf("receive %d from %d: got %d", j, from, buf[0])
			}
		}
		received.Done()
		// Nothing more is sent: this receive blocks until the abort.
		if _, err := ep0.Recv(from, 1, buf); !errors.Is(err, transport.ErrAborted) {
			errs[i] = fmt.Errorf("receive after the last message from %d: want the abort, got %v", from, err)
		}
	}
	sendLoop := func(i, from int) {
		defer wg.Done()
		ep := mustEndpoint(t, w, from)
		for j := 0; j < k; j++ {
			if err := ep.Send(0, 1, []byte{byte(j)}); err != nil {
				errs[i] = err
				return
			}
		}
	}
	wg.Add(4)
	received.Add(2)
	go recvLoop(0, 1)
	go recvLoop(1, 2)
	go sendLoop(2, 1)
	go sendLoop(3, 2)
	received.Wait()
	ep0.Abort(errors.New("caller gives up"))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestAbortMergeCopies: a later abort merges into a copy of the poison, so
// an AbortError already handed out never changes under its reader.
func TestAbortMergeCopies(t *testing.T) {
	w := mustWorld(t, 4)
	ep0, ep2 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 2)
	ep0.Abort(&transport.PeerError{Peer: 1, Err: transport.ErrTimeout})
	var first *transport.AbortError
	if !errors.As(ep2.AbortErr(), &first) {
		t.Fatalf("no abort error after Abort: %v", ep2.AbortErr())
	}
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				_ = first.Error()
			}
		}
	}()
	ep2.Abort(&transport.PeerError{Peer: 3, Err: transport.ErrTimeout})
	close(stop)
	<-read
	if !reflect.DeepEqual(first.Failed, []int{1}) {
		t.Errorf("handed-out abort changed: failed %v", first.Failed)
	}
	var merged *transport.AbortError
	if !errors.As(ep0.AbortErr(), &merged) || !reflect.DeepEqual(merged.Failed, []int{1, 3}) {
		t.Errorf("merged abort %v, want failed [1 3]", ep0.AbortErr())
	}
}

// partner runs fn iters times on its own goroutine and returns a
// function that waits for it and reports its error.
func partner(iters int, fn func() error) func() error {
	done := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return func() error { return <-done }
}

// TestHotPathAllocs: in steady state a 1 KiB Send → Recv and a 2-rank
// SendRecv allocate nothing, whether the receive finds its message
// already queued or has to block (arming its timeout) until it arrives.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const runs = 200
	w := mustWorld(t, 2, WithRecvTimeout(time.Minute))
	ep0, ep1 := mustEndpoint(t, w, 0), mustEndpoint(t, w, 1)
	sb, rb := make([]byte, 1024), make([]byte, 1024)
	check := func(name string, got float64) {
		t.Helper()
		if got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, got)
		}
	}

	check("queued Send→Recv", testing.AllocsPerRun(runs, func() {
		if err := ep0.Send(1, 1, sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ep1.Recv(0, 1, rb); err != nil {
			t.Fatal(err)
		}
	}))
	check("queued SendRecv", testing.AllocsPerRun(runs, func() {
		if err := ep1.Send(0, 2, sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ep0.SendRecv(1, 3, sb, 1, 2, rb); err != nil {
			t.Fatal(err)
		}
		if _, err := ep1.Recv(0, 3, rb); err != nil {
			t.Fatal(err)
		}
	}))

	// AllocsPerRun calls its function once more than runs to warm up.
	pbuf := make([]byte, 1024)
	wait := partner(runs+1, func() error {
		if _, err := ep1.Recv(0, 4, pbuf); err != nil {
			return err
		}
		return ep1.Send(0, 5, pbuf)
	})
	check("blocking Send→Recv ping-pong", testing.AllocsPerRun(runs, func() {
		if err := ep0.Send(1, 4, sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ep0.Recv(1, 5, rb); err != nil {
			t.Fatal(err)
		}
	}))
	if err := wait(); err != nil {
		t.Fatal(err)
	}

	psb := make([]byte, 1024)
	wait = partner(runs+1, func() error {
		_, err := ep1.SendRecv(0, 6, psb, 0, 6, pbuf)
		return err
	})
	check("blocking SendRecv exchange", testing.AllocsPerRun(runs, func() {
		if _, err := ep0.SendRecv(1, 6, sb, 1, 6, rb); err != nil {
			t.Fatal(err)
		}
	}))
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSendRecv: a 2-rank exchange, rank 0 timed against a partner
// goroutine doing the same; run with -benchmem to see allocs/op.
func BenchmarkSendRecv(b *testing.B) {
	for _, n := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			w, err := NewWorld(2, WithRecvTimeout(time.Minute))
			if err != nil {
				b.Fatal(err)
			}
			ep0, _ := w.Endpoint(0)
			ep1, _ := w.Endpoint(1)
			sb, rb := make([]byte, n), make([]byte, n)
			psb, prb := make([]byte, n), make([]byte, n)
			b.SetBytes(int64(n))
			b.ResetTimer()
			wait := partner(b.N, func() error {
				_, err := ep1.SendRecv(0, 1, psb, 0, 1, prb)
				return err
			})
			for i := 0; i < b.N; i++ {
				if _, err := ep0.SendRecv(1, 1, sb, 1, 1, rb); err != nil {
					b.Fatal(err)
				}
			}
			if err := wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
