// Tests for the pooled byte path of the blocking collectives: the working
// vectors come from the transport's shared buffer pool, and AllReduce
// combines in the caller's recv buffer.
package icc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	icc "repro"
)

// TestByteCallAllocs: in steady state a 1 MiB AllReduce or ReduceScatter
// over chan allocates less than n/8 bytes per call, counted over the whole
// world: staging vectors, segment buffers and message payloads are all
// pooled.
func TestByteCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	const p, count, n = 4, 1 << 18, 1 << 20 // float32 elements, bytes
	const warm, runs = 10, 50
	for _, op := range []string{"allreduce", "reducescatter"} {
		t.Run(op, func(t *testing.T) {
			var before, after runtime.MemStats
			err := icc.NewChannelWorld(p).Run(func(c *icc.Comm) error {
				send := make([]byte, n)
				recv := make([]byte, n)
				counts := make([]int, p)
				for i := range counts {
					counts[i] = count / p
				}
				call := func() error {
					if op == "allreduce" {
						return c.AllReduce(send, recv, count, icc.Float32, icc.Sum)
					}
					return c.ReduceScatter(send, counts, recv, icc.Float32, icc.Sum)
				}
				for i := 0; i < warm; i++ {
					if err := call(); err != nil {
						return err
					}
				}
				// Barriers fence the measured window on every rank.
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				for i := 0; i < runs; i++ {
					if err := call(); err != nil {
						return err
					}
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%s %d B over p=%d: %.0f B allocated per call (world total)", op, n, p, perCall)
			if perCall >= n/8 {
				t.Errorf("%s: %.0f B allocated per call, want < %d", op, perCall, n/8)
			}
		})
	}
}

// TestAllReduceInPlace: AllReduce(buf, buf, …) and AllReduceHypercube(buf,
// buf, …) equal the two-buffer result under every algorithm policy on chan
// and tcp, and a recv buffer too short is rejected before anything is
// written to it.
func TestAllReduceInPlace(t *testing.T) {
	const p, count = 4, 3000 // float64 elements
	worlds := []struct {
		name string
		run  func(fn func(c *icc.Comm) error, opts ...icc.Option) error
	}{
		{"chan", func(fn func(c *icc.Comm) error, opts ...icc.Option) error {
			return icc.NewChannelWorld(p, opts...).Run(fn)
		}},
		{"tcp", func(fn func(c *icc.Comm) error, opts ...icc.Option) error {
			return icc.NewTCPWorld(p, opts...).Run(fn)
		}},
	}
	algs := []struct {
		name string
		alg  icc.Alg
	}{{"auto", icc.AlgAuto}, {"short", icc.AlgShort}, {"long", icc.AlgLong}}
	for _, w := range worlds {
		for _, a := range algs {
			t.Run(w.name+"/"+a.name, func(t *testing.T) {
				err := w.run(func(c *icc.Comm) error {
					in := make([]byte, 8*count)
					for j := 0; j < count; j++ {
						binary.LittleEndian.PutUint64(in[8*j:], math.Float64bits(float64(c.Rank()*count+j)))
					}
					want := make([]byte, len(in))
					if err := c.AllReduce(in, want, count, icc.Float64, icc.Sum); err != nil {
						return err
					}
					buf := append([]byte(nil), in...)
					if err := c.AllReduce(buf, buf, count, icc.Float64, icc.Sum); err != nil {
						return err
					}
					if !bytes.Equal(buf, want) {
						return fmt.Errorf("in-place result differs from the two-buffer result")
					}
					copy(buf, in)
					if err := c.AllReduceHypercube(buf, buf, count, icc.Float64, icc.Sum); err != nil {
						return err
					}
					if !bytes.Equal(buf, want) {
						return fmt.Errorf("in-place hypercube result differs from the two-buffer result")
					}
					short := bytes.Repeat([]byte{0xab}, len(in)-1)
					if err := c.AllReduce(in, short, count, icc.Float64, icc.Sum); err == nil {
						return fmt.Errorf("short recv buffer accepted")
					}
					if !bytes.Equal(short, bytes.Repeat([]byte{0xab}, len(in)-1)) {
						return fmt.Errorf("short recv buffer written before rejection")
					}
					return nil
				}, icc.WithAlg(a.alg))
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
