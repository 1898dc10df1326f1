// Benchmarks, one per table and figure of the paper plus library-overhead
// measurements. The experiment benchmarks run the same harness code as the
// cmd/ tools at reduced mesh sizes (so `go test -bench` stays fast) and
// report the simulated Paragon time as the custom metric "sim-sec"; the
// full-scale numbers recorded in EXPERIMENTS.md come from the cmd/ tools.
// The remaining benchmarks measure the real wall-clock cost of the library
// over the in-process channel transport.
package icc_test

import (
	"fmt"
	"testing"

	icc "repro"
	"repro/internal/group"
	"repro/internal/harness"
	"repro/internal/model"
)

// BenchmarkTable2 regenerates the hybrid cost menu (pure model
// evaluation).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := harness.Table2(); len(tab.Rows) != 8 {
			b.Fatalf("%d rows", len(tab.Rows))
		}
	}
}

// BenchmarkFig2 regenerates the predicted broadcast curves.
func BenchmarkFig2(b *testing.B) {
	lengths := []int{8, 512, 16384, 262144, 1 << 20}
	for i := 0; i < b.N; i++ {
		if tab := harness.Fig2(lengths); len(tab.Rows) != len(lengths) {
			b.Fatalf("%d rows", len(tab.Rows))
		}
	}
}

// BenchmarkFig1 regenerates the 12-node hybrid broadcast trace.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTable3Op runs one Table 3 cell on an 8×8 simulated mesh and reports
// NX and InterCom simulated times.
func benchTable3Op(b *testing.B, op harness.Op, n int) {
	m := model.ParagonLike()
	pl := model.NewPlanner(m)
	var coll model.Collective
	switch op {
	case harness.OpBcast:
		coll = model.Bcast
	case harness.OpCollect:
		coll = model.Collect
	default:
		coll = model.AllReduce
	}
	var nx, iccT float64
	for i := 0; i < b.N; i++ {
		var err error
		nx, err = harness.RunNX(op, 8, 8, n, m)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := pl.Best(coll, group.Mesh2D(8, 8), n)
		iccT, err = harness.RunICC(op, 8, 8, n, m, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nx, "nx-sim-sec")
	b.ReportMetric(iccT, "icc-sim-sec")
	b.ReportMetric(nx/iccT, "ratio")
}

// BenchmarkTable3 covers the three operations at the paper's three
// lengths, scaled to an 8×8 mesh.
func BenchmarkTable3(b *testing.B) {
	for _, op := range []harness.Op{harness.OpBcast, harness.OpCollect, harness.OpGlobalSum} {
		for _, n := range []int{8, 64 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%v/n%d", op, n), func(b *testing.B) {
				benchTable3Op(b, op, n)
			})
		}
	}
}

// BenchmarkFig4Collect regenerates the left panel on a 4×8 mesh.
func BenchmarkFig4Collect(b *testing.B) {
	lengths := []int{8, 4096, 262144}
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig4Collect(4, 8, lengths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Bcast regenerates the right panel on a 5×6 mesh
// (non-power-of-two, like the paper's 15×30).
func BenchmarkFig4Bcast(b *testing.B) {
	lengths := []int{8, 4096, 262144}
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig4Bcast(5, 6, lengths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedAblation regenerates the §8 noise ablation at reduced
// scale.
func BenchmarkPipelinedAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblatePipelined(8, 1<<20, []float64{0, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCubeBroadcasts regenerates the §8/§11 native-hypercube
// comparison at reduced scale.
func BenchmarkCubeBroadcasts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.CubeBroadcasts(16, []int{8, 262144, 4 << 20}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChannelCollective measures real wall-clock time of one collective
// over the channel transport — the library's software overhead, which is
// what a Go application actually pays.
func benchChannelCollective(b *testing.B, p, bytes int, alg icc.Alg, op string) {
	w := icc.NewChannelWorld(p, icc.WithAlg(alg))
	send := make([]byte, bytes)
	recv := make([]byte, bytes)
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := w.Run(func(c *icc.Comm) error {
			switch op {
			case "bcast":
				return c.Bcast(send, bytes, icc.Uint8, 0)
			case "allreduce":
				return c.AllReduce(send, recv, bytes, icc.Uint8, icc.Sum)
			case "alltoall":
				return c.AllToAll(send, recv, bytes/p, icc.Uint8)
			default:
				cnt := bytes / p
				return c.Collect(send[:cnt], recv, cnt, icc.Uint8)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChannelBcast / AllReduce / Collect: real-time library overhead
// across algorithm policies and sizes.
func BenchmarkChannelBcast(b *testing.B) {
	for _, alg := range []icc.Alg{icc.AlgShort, icc.AlgLong, icc.AlgAuto} {
		for _, n := range []int{1 << 10, 1 << 17} {
			b.Run(fmt.Sprintf("%s/n%d", alg, n), func(b *testing.B) {
				benchChannelCollective(b, 8, n, alg, "bcast")
			})
		}
	}
}

func BenchmarkChannelAllReduce(b *testing.B) {
	for _, alg := range []icc.Alg{icc.AlgShort, icc.AlgLong, icc.AlgAuto} {
		b.Run(alg.String(), func(b *testing.B) {
			benchChannelCollective(b, 8, 1<<16, alg, "allreduce")
		})
	}
}

func BenchmarkChannelCollect(b *testing.B) {
	for _, p := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			benchChannelCollective(b, p, 1<<16, icc.AlgAuto, "collect")
		})
	}
}

// BenchmarkAllToAll: real wall-clock cost of the complete exchange over
// the channel transport, across algorithm policies and vector lengths.
func BenchmarkAllToAll(b *testing.B) {
	for _, alg := range []icc.Alg{icc.AlgShort, icc.AlgLong, icc.AlgAuto} {
		for _, n := range []int{1 << 10, 1 << 17} {
			b.Run(fmt.Sprintf("%s/n%d", alg, n), func(b *testing.B) {
				benchChannelCollective(b, 8, n, alg, "alltoall")
			})
		}
	}
}

// BenchmarkHierAllToAll: the two-level complete exchange against the flat
// auto schedule on the simulated clustered machine. Lengths are whole
// multiples of the 64-rank group so the labels state the exact bytes
// exchanged (the harness rounds up to a whole block per pair otherwise).
func BenchmarkHierAllToAll(b *testing.B) {
	for _, n := range []int{64, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchHierPoint(b, model.AllToAll, n)
		})
	}
}

// benchHierPoint runs one flat-versus-hierarchical comparison on a
// simulated two-level machine (8 clusters × 8 ranks, inter/intra β ratio
// 10, round-robin placement) and reports both simulated times plus the
// hierarchy's speedup, the same quantities cmd/hiersweep sweeps at full
// scale.
func benchHierPoint(b *testing.B, coll model.Collective, n int) {
	tl := model.ClusterLike()
	var flat, hier float64
	for i := 0; i < b.N; i++ {
		var err error
		flat, hier, err = harness.HierPoint(coll, 8, 8, n, tl, harness.RoundRobin)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(flat, "flat-sim-sec")
	b.ReportMetric(hier, "hier-sim-sec")
	b.ReportMetric(flat/hier, "speedup")
}

// BenchmarkHierAllReduce / BenchmarkHierBcast: the two-level hierarchy
// against the flat auto hybrid, across message lengths.
func BenchmarkHierAllReduce(b *testing.B) {
	for _, n := range []int{8, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchHierPoint(b, model.AllReduce, n)
		})
	}
}

func BenchmarkHierBcast(b *testing.B) {
	for _, n := range []int{8, 65536, 1 << 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchHierPoint(b, model.Bcast, n)
		})
	}
}

// BenchmarkHierChannelAllReduce measures real wall-clock cost of the
// hierarchical all-reduce over the channel transport against the flat
// policies, on a clustered communicator.
func BenchmarkHierChannelAllReduce(b *testing.B) {
	const p, bytes = 16, 1 << 16
	for _, alg := range []icc.Alg{icc.AlgAuto, icc.AlgHier} {
		b.Run(alg.String(), func(b *testing.B) {
			w := icc.NewChannelWorld(p, icc.WithAlg(alg))
			send := make([]byte, bytes)
			recv := make([]byte, bytes)
			b.SetBytes(int64(bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := w.Run(func(c *icc.Comm) error {
					h, herr := c.WithClustersBySize(4)
					if herr != nil {
						return herr
					}
					return h.AllReduce(send, recv, bytes, icc.Uint8, icc.Sum)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanner measures hybrid selection cost (it sits on the critical
// path of every auto-mode collective call).
func BenchmarkPlanner(b *testing.B) {
	pl := model.NewPlanner(model.ParagonLike())
	l := group.Mesh2D(16, 32)
	pl.Shapes(l) // warm the enumeration cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Best(model.Bcast, l, 1<<uint(i%21))
	}
}

// BenchmarkTCPLargeStep: one data-parallel training step over loopback
// tcp, p=4 — a 4 MiB float32 all-reduce and reduce-scatter, a 1 MiB/rank
// collect and a 1 MiB broadcast — so that -benchmem reports the byte
// path's allocs/op (whole world, per step) beside the chan figures.
func BenchmarkTCPLargeStep(b *testing.B) {
	const p, count, perRank = 4, 1 << 20, 1 << 18 // float32 elements
	b.SetBytes(4 * (2*count + perRank*p + perRank))
	err := icc.NewTCPWorld(p).Run(func(c *icc.Comm) error {
		in := make([]byte, 4*count)
		arRecv := make([]byte, 4*count)
		rsRecv := make([]byte, 4*count/p)
		collRecv := make([]byte, 4*perRank*p)
		bc := make([]byte, 4*perRank)
		counts := make([]int, p)
		for i := range counts {
			counts[i] = count / p
		}
		step := func() error {
			if err := c.AllReduce(in, arRecv, count, icc.Float32, icc.Sum); err != nil {
				return err
			}
			if err := c.ReduceScatter(in, counts, rsRecv, icc.Float32, icc.Sum); err != nil {
				return err
			}
			if err := c.Collect(in[:4*perRank], collRecv, perRank, icc.Float32); err != nil {
				return err
			}
			return c.Bcast(bc, perRank, icc.Float32, 0)
		}
		// One warm-up step fills the pools and the shape memo; the mesh
		// bring-up stays outside the timed region.
		if err := step(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
