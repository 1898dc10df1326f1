package simnet

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/transport"
)

// testMachine gives round numbers: α = 10 s, β = 1 s/byte, no excess.
func testMachine() model.Machine {
	return model.Machine{Alpha: 10, Beta: 1, Gamma: 0.5, LinkExcess: 1}
}

func cfg1xN(n int) Config {
	return Config{Rows: 1, Cols: n, Machine: testMachine(), CarryData: true}
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestPointToPoint: one message costs exactly α + nβ.
func TestPointToPoint(t *testing.T) {
	const n = 100
	res, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		buf := make([]byte, n)
		switch ep.Rank() {
		case 0:
			for i := range buf {
				buf[i] = byte(i)
			}
			return ep.Send(1, 7, buf)
		default:
			got, err := ep.Recv(0, 7, buf)
			if err != nil {
				return err
			}
			if got != n {
				t.Errorf("received %d bytes, want %d", got, n)
			}
			for i := range buf {
				if buf[i] != byte(i) {
					t.Errorf("payload corrupted at %d", i)
					break
				}
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "p2p time", res.Time, 10+100)
	if res.Messages != 1 {
		t.Errorf("messages = %d, want 1", res.Messages)
	}
	if res.BytesMoved != n {
		t.Errorf("bytes = %v, want %d", res.BytesMoved, n)
	}
}

// TestSequentialSends: a node sends to one partner at a time, so two sends
// serialize: 2(α + nβ).
func TestSequentialSends(t *testing.T) {
	const n = 50
	res, err := Run(cfg1xN(3), func(ep *Endpoint) error {
		buf := make([]byte, n)
		switch ep.Rank() {
		case 0:
			if err := ep.Send(1, 1, buf); err != nil {
				return err
			}
			return ep.Send(2, 2, buf)
		case 1:
			_, err := ep.Recv(0, 1, buf)
			return err
		default:
			_, err := ep.Recv(0, 2, buf)
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "two sequential sends", res.Time, 2*(10+50))
}

// TestLinkSharing: flows 0→2 and 1→3 on a 1×4 array share the middle
// eastward channel; with LinkExcess 1 each gets half bandwidth, with
// LinkExcess 2 both run at full injection rate (§7.1).
func TestLinkSharing(t *testing.T) {
	const n = 100
	run := func(excess float64) float64 {
		m := testMachine()
		m.LinkExcess = excess
		res, err := Run(Config{Rows: 1, Cols: 4, Machine: m, CarryData: true}, func(ep *Endpoint) error {
			buf := make([]byte, n)
			switch ep.Rank() {
			case 0:
				return ep.Send(2, 1, buf)
			case 1:
				return ep.Send(3, 2, buf)
			case 2:
				_, err := ep.Recv(0, 1, buf)
				return err
			default:
				_, err := ep.Recv(1, 2, buf)
				return err
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	approx(t, "shared link, excess 1", run(1), 10+2*100)
	approx(t, "shared link, excess 2", run(2), 10+100)
}

// TestRingExchange: every node SendRecvs its right neighbour. Rightward
// messages use eastward channels; the wrap-around goes west on otherwise
// idle channels, so even with LinkExcess 1 there are no conflicts — the
// paper's "unidirectional ring" observation (§4).
func TestRingExchange(t *testing.T) {
	const p, n = 8, 64
	res, err := Run(cfg1xN(p), func(ep *Endpoint) error {
		right := (ep.Rank() + 1) % p
		left := (ep.Rank() + p - 1) % p
		sb := make([]byte, n)
		rb := make([]byte, n)
		_, err := ep.SendRecv(right, 5, sb, left, 5, rb)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "ring step", res.Time, 10+64)
}

// TestFullDuplex: two nodes exchanging simultaneously finish in one message
// time — a node can send and receive at once (§2).
func TestFullDuplex(t *testing.T) {
	const n = 200
	res, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		other := 1 - ep.Rank()
		sb := make([]byte, n)
		rb := make([]byte, n)
		_, err := ep.SendRecv(other, 3, sb, other, 3, rb)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "full duplex exchange", res.Time, 10+200)
}

// TestElapseDelaysFlow: compute time on the sender delays the transfer.
func TestElapseDelaysFlow(t *testing.T) {
	res, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		buf := make([]byte, 10)
		if ep.Rank() == 0 {
			ep.Elapse(100)
			if ep.Now() != 100 {
				t.Errorf("Now() = %v, want 100", ep.Now())
			}
			return ep.Send(1, 1, buf)
		}
		_, err := ep.Recv(0, 1, buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "elapse then send", res.Time, 100+10+10)
}

// TestXYConflict2D: on a 2×2 mesh, 0→3 routes east then south through
// column 1, sharing the southward channel with 1→3's path. Receiver 3 can
// only receive one at a time anyway, so serialization comes from the
// single-port model.
func TestXYConflict2D(t *testing.T) {
	const n = 40
	res, err := Run(Config{Rows: 2, Cols: 2, Machine: testMachine(), CarryData: true}, func(ep *Endpoint) error {
		buf := make([]byte, n)
		switch ep.Rank() {
		case 0:
			return ep.Send(3, 1, buf)
		case 1:
			return ep.Send(3, 2, buf)
		case 3:
			if _, err := ep.Recv(0, 1, buf); err != nil {
				return err
			}
			_, err := ep.Recv(1, 2, buf)
			return err
		default:
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "two receives serialize", res.Time, 2*(10+40))
}

// TestDeadlockDetection: two nodes both receiving first is a deadlock; the
// engine must diagnose it rather than hang.
func TestDeadlockDetection(t *testing.T) {
	_, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		buf := make([]byte, 1)
		_, err := ep.Recv(1-ep.Rank(), 1, buf)
		return err
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("deadlock")) {
		t.Errorf("error does not mention deadlock: %v", err)
	}
}

// TestTagMismatch: a receive with the wrong tag fails on both sides.
func TestTagMismatch(t *testing.T) {
	_, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		buf := make([]byte, 1)
		if ep.Rank() == 0 {
			return ep.Send(1, 1, buf)
		}
		_, err := ep.Recv(0, 2, buf)
		return err
	})
	if !errors.Is(err, transport.ErrTagMismatch) {
		t.Errorf("want ErrTagMismatch, got %v", err)
	}
}

// TestTruncation: a message longer than the receive buffer fails.
func TestTruncation(t *testing.T) {
	_, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(1, 1, make([]byte, 10))
		}
		_, err := ep.Recv(0, 1, make([]byte, 5))
		return err
	})
	if !errors.Is(err, transport.ErrTruncate) {
		t.Errorf("want ErrTruncate, got %v", err)
	}
}

// TestBadRank: out-of-range peers fail immediately.
func TestBadRank(t *testing.T) {
	_, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(5, 1, nil)
		}
		return nil
	})
	if !errors.Is(err, transport.ErrRank) {
		t.Errorf("want ErrRank, got %v", err)
	}
}

// TestZeroByteMessage: costs exactly α.
func TestZeroByteMessage(t *testing.T) {
	res, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			return ep.Send(1, 1, nil)
		}
		_, err := ep.Recv(0, 1, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "zero-byte message", res.Time, 10)
}

// TestSelfMessage: a SendRecv to self passes through the local interface
// (injection+ejection) and costs α + nβ.
func TestSelfMessage(t *testing.T) {
	res, err := Run(cfg1xN(1), func(ep *Endpoint) error {
		sb := []byte{1, 2, 3, 4}
		rb := make([]byte, 4)
		n, err := ep.SendRecv(0, 9, sb, 0, 9, rb)
		if err != nil {
			return err
		}
		if n != 4 || !bytes.Equal(rb, sb) {
			t.Errorf("self message corrupted: %v", rb)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "self message", res.Time, 10+4)
}

// TestDeterminism: identical runs produce identical times and stats.
func TestDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(Config{Rows: 4, Cols: 4, Machine: testMachine(), CarryData: true}, func(ep *Endpoint) error {
			p := ep.Size()
			buf := make([]byte, 128)
			rb := make([]byte, 128)
			for step := 0; step < 5; step++ {
				right := (ep.Rank() + 1 + step) % p
				left := (ep.Rank() - 1 - step + 2*p) % p
				if _, err := ep.SendRecv(right, transport.Tag(step), buf, left, transport.Tag(step), rb); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Time != b.Time || a.Messages != b.Messages || a.BytesMoved != b.BytesMoved {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestMSTTiming: a hand-rolled MST broadcast on a 1×8 array costs exactly
// ⌈log p⌉(α+nβ) — the simulator agrees with the model's §4.1 formula.
func TestMSTTiming(t *testing.T) {
	const n = 100
	res, err := Run(cfg1xN(8), func(ep *Endpoint) error {
		buf := make([]byte, n)
		me := ep.Rank()
		// Recursive halving on [0,8), root 0, unrolled: step sizes 4,2,1.
		for half := 4; half >= 1; half /= 2 {
			block := me / (2 * half) * (2 * half)
			pos := me - block
			switch {
			case pos == 0:
				if err := ep.Send(block+half, 1, buf); err != nil {
					return err
				}
			case pos == half:
				if _, err := ep.Recv(block, 1, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "MST broadcast 1x8", res.Time, 3*(10+n))
}

// TestNoiseIsDeterministicAndBounded: latency noise changes times but is
// reproducible for a fixed seed and bounded by the amplitude.
func TestNoiseIsDeterministicAndBounded(t *testing.T) {
	base := Config{Rows: 1, Cols: 2, Machine: testMachine(), CarryData: true, NoiseAmp: 5, NoiseSeed: 42}
	fn := func(ep *Endpoint) error {
		buf := make([]byte, 10)
		if ep.Rank() == 0 {
			return ep.Send(1, 1, buf)
		}
		_, err := ep.Recv(0, 1, buf)
		return err
	}
	r1, err := Run(base, fn)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(base, fn)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Errorf("noise not deterministic: %v vs %v", r1.Time, r2.Time)
	}
	if r1.Time < 20 || r1.Time >= 25 {
		t.Errorf("noisy time %v outside [20, 25)", r1.Time)
	}
	other := base
	other.NoiseSeed = 43
	r3, err := Run(other, fn)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Time == r1.Time {
		t.Errorf("different seeds produced identical noise")
	}
}

// TestTimingOnlyMode: with CarryData false no payload moves, but timing is
// identical to the carrying run.
func TestTimingOnlyMode(t *testing.T) {
	fn := func(ep *Endpoint) error {
		buf := make([]byte, 100)
		if ep.Rank() == 0 {
			return ep.Send(1, 1, buf)
		}
		n, err := ep.Recv(0, 1, buf)
		if err == nil && n != 100 {
			t.Errorf("timing-only recv length = %d, want 100", n)
		}
		return err
	}
	cfg := cfg1xN(2)
	cfg.CarryData = false
	res, err := Run(cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "timing-only p2p", res.Time, 110)
}

// TestPanicIsolation: a panic on one node becomes an error, not a crash.
func TestPanicIsolation(t *testing.T) {
	_, err := Run(cfg1xN(2), func(ep *Endpoint) error {
		if ep.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Errorf("panic not surfaced: %v", err)
	}
}

// TestWormholeDistanceIndependence: latency does not depend on distance
// (§2's wormhole model): a 1-hop and a 29-hop message cost the same.
func TestWormholeDistanceIndependence(t *testing.T) {
	const n = 100
	for _, dst := range []int{1, 29} {
		res, err := Run(cfg1xN(30), func(ep *Endpoint) error {
			buf := make([]byte, n)
			switch ep.Rank() {
			case 0:
				return ep.Send(dst, 1, buf)
			case dst:
				_, err := ep.Recv(0, 1, buf)
				return err
			default:
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "distance-independent latency", res.Time, 110)
	}
}

// TestConfigValidation rejects nonsense configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Rows: 0, Cols: 4, Machine: testMachine()}, nil); err == nil {
		t.Error("0-row mesh accepted")
	}
	bad := Config{Rows: 1, Cols: 1, Machine: model.Machine{Alpha: 1, Beta: -1, LinkExcess: 1}}
	if _, err := Run(bad, nil); err == nil {
		t.Error("negative β accepted")
	}
}

// TestAbortMergeCopies: a later abort merges into a copy of the poison, so
// an AbortError already handed out never changes under a reader outside
// the simulation.
func TestAbortMergeCopies(t *testing.T) {
	_, err := Run(cfg1xN(3), func(ep *Endpoint) error {
		if ep.Rank() != 0 {
			return nil
		}
		ep.Abort(&transport.PeerError{Peer: 1, Err: transport.ErrTimeout})
		var first *transport.AbortError
		if !errors.As(ep.AbortErr(), &first) {
			t.Errorf("no abort error after Abort: %v", ep.AbortErr())
			return nil
		}
		stop, read := make(chan struct{}), make(chan struct{})
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
		ep.Abort(&transport.PeerError{Peer: 2, Err: transport.ErrTimeout})
		close(stop)
		<-read
		if !reflect.DeepEqual(first.Failed, []int{1}) {
			t.Errorf("handed-out abort changed: failed %v", first.Failed)
		}
		var merged *transport.AbortError
		if !errors.As(ep.AbortErr(), &merged) || !reflect.DeepEqual(merged.Failed, []int{1, 2}) {
			t.Errorf("merged abort %v, want failed [1 2]", ep.AbortErr())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
