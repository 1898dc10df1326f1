package main

// The traced run's per-layer ledger: transport and public-call spans of
// the workload, and a ladder of rungs that time each layer's public entry
// points on their own (raw Send/Recv ping-pong, core.Build*/Plan.Execute,
// datatype.Apply, icc.Calibrate's model), identical on every workload.

import (
	"fmt"
	"math"
	"sort"

	icc "repro"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/group"
	"repro/internal/model"
	"repro/internal/transport"
)

// metric is one named figure of a report.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind it (0: a count or a derived figure)
}

type ledger struct {
	metrics []metric
	lines   []string // the human-readable ledger
}

func (lg *ledger) add(name string, v float64, unit string, n int) {
	lg.metrics = append(lg.metrics, metric{name, v, unit, n})
}

func (lg *ledger) printf(format string, args ...any) {
	lg.lines = append(lg.lines, fmt.Sprintf(format, args...))
}

// collOf maps a call kind to the model collective its shape is planned for.
func collOf(k callKind) (model.Collective, bool) {
	switch k {
	case kAllReduce, kPersistent, kIAllReduce:
		return model.AllReduce, true
	case kBcast:
		return model.Bcast, true
	case kReduce:
		return model.Reduce, true
	case kReduceScatter:
		return model.ReduceScatter, true
	case kCollect:
		return model.Collect, true
	}
	return 0, false
}

// flatShape is the shape a flat communicator with the default machine
// (no transport hint, no calibration) plans for an n-byte call on p ranks.
func flatShape(c model.Collective, p, n int) model.Shape {
	s, _ := model.NewPlanner(model.ParagonLike()).Best(c, group.Linear(p), n)
	return s
}

// interval is a half-open time range in ns.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi] the sorted intervals cover.
func covered(lo, hi int64, ivs []interval) int64 {
	var tot, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := iv.lo, iv.hi
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			tot += b - a
			cur = b
		}
	}
	return tot
}

// spanLedger analyses one traced phase: per-op transport figures, the
// public calls' self time, per-kind call latency, and the model's message
// count beside the measured one for every flat-shape call.
func spanLedger(lg *ledger, rec *recorder, logs []*callLog, steps int, flat bool) {
	fs := float64(steps)
	counts, bytes := rec.counts()
	lg.add("transport.send_calls_per_step", float64(counts[opSend])/fs, "count", steps)
	lg.add("transport.recv_calls_per_step", float64(counts[opRecv])/fs, "count", steps)
	lg.add("transport.sendrecv_calls_per_step", float64(counts[opSendRecv])/fs, "count", steps)
	lg.add("transport.bytes_per_step", float64(bytes)/fs, "B", steps)

	var durs [nOps][]float64
	var recvWait, busy, callTime, self int64
	perKind := map[callKind][]float64{}
	type callKey struct {
		step int32
		idx  uint8
	}
	msgs := map[callKey]int{}
	meta := map[callKey]callSpan{}
	for r, rl := range rec.ranks {
		rl.mu.Lock()
		ops := append([]tspan(nil), rl.ops...)
		rl.mu.Unlock()
		sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
		calls := make([]cspan, len(logs[r].spans))
		for i, c := range logs[r].spans {
			calls[i] = c.cspan
		}
		parent := contained(calls, ops)
		children := make([][]interval, len(calls))
		for i, o := range ops {
			d := o.end - o.start
			durs[o.op] = append(durs[o.op], float64(d)/1e3)
			if o.op == opRecv {
				recvWait += d
			}
			if j := parent[i]; j >= 0 {
				children[j] = append(children[j], interval{o.start, o.end})
			}
		}
		perCall := make([]int, len(calls))
		for i := range ops {
			if j := parent[i]; j >= 0 {
				perCall[j]++
			}
		}
		for j, c := range logs[r].spans {
			d := c.end - c.start
			cov := covered(c.start, c.end, children[j])
			callTime += d
			busy += cov
			self += d - cov
			perKind[c.kind] = append(perKind[c.kind], float64(d)/1e3)
			key := callKey{c.step, c.idx}
			if perCall[j] > msgs[key] {
				msgs[key] = perCall[j]
			}
			meta[key] = c
		}
	}
	lg.add("transport.send_us_p50", median(durs[opSend]), "us", len(durs[opSend]))
	lg.add("transport.sendrecv_us_p50", median(durs[opSendRecv]), "us", len(durs[opSendRecv]))
	lg.add("transport.recv_wait_us_per_step", float64(recvWait)/1e3/fs, "us", steps)
	share := 0.0
	if callTime > 0 {
		share = float64(busy) / float64(callTime)
	}
	lg.add("transport.busy_share", share, "ratio", steps)
	lg.add("icc.self_us_per_step", float64(self)/1e3/fs, "us", steps)
	lg.printf("layer self time per step: icc+core+datatype %.1f us, transport %.1f us (of %.1f us in public calls, all ranks)",
		float64(self)/1e3/fs, float64(busy)/1e3/fs, float64(callTime)/1e3/fs)
	for k := callKind(0); k < nKinds; k++ {
		if xs := perKind[k]; len(xs) > 0 {
			lg.printf("icc.%s.calls %d  icc.%s.p50_us %.1f  p90_us %.1f", kindNames[k], len(xs), kindNames[k],
				median(xs), quantile(xs, 0.9))
		}
	}

	// Model ledger: α (message start-ups on the critical path) against the
	// largest number of transport calls any rank made inside the call.
	type row struct {
		alpha       float64
		measured    map[int]int // transport calls → how many calls made that many
		calls       int
		mismatching int
	}
	rows := map[string]*row{}
	var checked, mismatched int
	var combined float64
	for key, c := range meta {
		coll, ok := collOf(c.kind)
		if !ok {
			continue
		}
		s := flatShape(coll, int(c.p), int(c.bytes))
		a, _, _, g := model.ParagonLike().Coefficients(coll, s)
		combined += g * float64(c.bytes)
		if !flat {
			continue
		}
		id := fmt.Sprintf("%s p=%d n=%d", kindNames[c.kind], c.p, c.bytes)
		rw := rows[id]
		if rw == nil {
			rw = &row{alpha: a, measured: map[int]int{}}
			rows[id] = rw
		}
		m := msgs[key]
		rw.measured[m]++
		rw.calls++
		checked++
		if float64(m) != math.Round(a) || a != math.Round(a) {
			rw.mismatching++
			mismatched++
		}
	}
	lg.add("datatype.bytes_combined_per_step", combined/float64(steps), "B", steps)
	lg.add("model.msg_count_checked", float64(checked), "count", 0)
	lg.add("model.msg_count_mismatches", float64(mismatched), "count", 0)
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if !flat {
		lg.printf("model message counts: not checked (hierarchical shapes; the α count is a flat-shape figure)")
	}
	for _, id := range ids {
		rw := rows[id]
		verdict := "match"
		if rw.mismatching > 0 {
			verdict = fmt.Sprintf("MISMATCH in %d of %d calls (finding, not hidden)", rw.mismatching, rw.calls)
		}
		lg.printf("model.msgs_per_call.%s: alpha %.2f, measured max transport calls per rank %v: %s",
			id, rw.alpha, rw.measured, verdict)
	}
}

// phaseStats adds the persistent/request sub-phase p50s: from the
// workload's own calls where its recipe has them, otherwise from the
// ladder's progress probe.
func phaseStats(lg *ledger, logs []*callLog) error {
	var probeLogs []*callLog
	for ph := phaseKind(0); ph < nPhases; ph++ {
		xs, source := phaseSamples(logs, ph), "workload"
		if len(xs) == 0 {
			if probeLogs == nil {
				var err error
				if probeLogs, err = progressProbe(300); err != nil {
					return err
				}
			}
			xs, source = phaseSamples(probeLogs, ph), "ladder probe: chan p=8, 1 KiB AllReduceInit, 256 B IAllReduce"
		}
		us := nsToUs(xs)
		lg.add(phaseNames[ph], median(us), "us", len(us))
		lg.printf("%s p50 %.1f us over %d (%s)", phaseNames[ph], median(us), len(us), source)
	}
	return nil
}

func phaseSamples(logs []*callLog, ph phaseKind) []int64 {
	var xs []int64
	for _, l := range logs {
		xs = append(xs, l.phases[ph]...)
	}
	return xs
}

// ---- ladder -------------------------------------------------------------

// pingpong times raw Send/Recv round trips between ranks 0 and 1 and
// returns the median one-way time in µs.
func pingpong(tr string, size, reps int) (float64, int64, error) {
	w, err := newWorld(tr, 2, modeRaw, nil)
	if err != nil {
		return 0, 0, err
	}
	defer w.close()
	tag := transport.Compose(0x61, 1, 0)
	samples := make([]float64, 0, reps)
	err = spmd(2, func(r int) error {
		ep := w.eps[r]
		buf := make([]byte, size)
		for i := 0; i < reps+reps/10+1; i++ {
			t0 := now()
			if r == 0 {
				if err := ep.Send(1, tag, buf); err != nil {
					return err
				}
				if _, err := ep.Recv(1, tag, buf); err != nil {
					return err
				}
				if i > reps/10 {
					samples = append(samples, float64(now()-t0)/2e3)
				}
			} else {
				if _, err := ep.Recv(0, tag, buf); err != nil {
					return err
				}
				if err := ep.Send(0, tag, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return median(samples), w.reconnects(), err
}

// coreRung builds an all-reduce plan with core.BuildAllReduce for the
// shape a default flat communicator picks, and times Plan.Execute on the
// same transport. It returns build µs p50, plan steps, execute µs p50.
func coreRung(tr string, p, count int, dt datatype.Type, reps int) (float64, int, float64, model.Shape, int64, error) {
	w, err := newWorld(tr, p, modeRaw, nil)
	if err != nil {
		return 0, 0, 0, model.Shape{}, 0, err
	}
	defer w.close()
	n := count * dt.Size()
	shape := flatShape(model.AllReduce, p, n)
	var builds, execs []float64
	steps := 0
	err = spmd(p, func(r int) error {
		mach := model.ParagonLike()
		ctx := core.Ctx{EP: w.eps[r], Members: group.Identity(p), Me: r, Coll: 0x62, Machine: &mach}
		var pl *core.Plan
		var bt []float64
		for i := 0; i < 20; i++ {
			t0 := now()
			var err error
			if pl, err = core.BuildAllReduce(ctx, shape, count, dt, datatype.Sum); err != nil {
				return err
			}
			bt = append(bt, float64(now()-t0)/1e3)
		}
		bs := core.Buffers{Buf: make([]byte, pl.BufLen), Tmp: make([]byte, pl.TmpLen), Scratch: make([]byte, pl.ScratchLen)}
		var et []float64
		for i := 0; i < reps+reps/10+1; i++ {
			t0 := now()
			if err := pl.Execute(w.eps[r], &mach, bs); err != nil {
				return err
			}
			if i > reps/10 {
				et = append(et, float64(now()-t0)/1e3)
			}
		}
		if r == 0 {
			builds, execs, steps = bt, et, pl.Steps()
		}
		return nil
	})
	return median(builds), steps, median(execs), shape, w.reconnects(), err
}

// applyRung times datatype.Apply Sum over n bytes of dt, ns per byte.
func applyRung(dt datatype.Type, n, reps int) float64 {
	dst, src := make([]byte, n), make([]byte, n)
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := now()
		if err := datatype.Apply(dt, datatype.Sum, dst, src); err != nil {
			return 0
		}
		xs = append(xs, float64(now()-t0)/float64(n))
	}
	return median(xs)
}

// calibrated fits a profile with icc.Calibrate on a p-rank world of the
// transport and returns the fitted flat machine.
func calibrated(tr string, p int) (model.Machine, int64, error) {
	w, err := newWorld(tr, p, modeRaw, nil)
	if err != nil {
		return model.Machine{}, 0, err
	}
	defer w.close()
	profs := make([]*icc.Profile, p)
	err = spmd(p, func(r int) error {
		var err error
		profs[r], err = icc.Calibrate(w.comms[r], icc.CalibrateOptions{Transport: tr})
		return err
	})
	if err != nil {
		return model.Machine{}, 0, err
	}
	return profs[0].Machine, w.reconnects(), nil
}

// rung is one ladder entry of the core/model ledger.
type rung struct {
	name, tr string
	p, count int
	dt       datatype.Type
	reps     int
}

var rungs = []rung{
	{"ar1k-chan", "chan", 8, 128, datatype.Float64, 400},
	{"ar4m-tcp", "tcp", 4, 1 << 20, datatype.Float32, 12},
}

// ladder runs every rung and adds its figures.
func ladder(lg *ledger) (int64, error) {
	var reconnects int64
	for _, tr := range []string{"chan", "tcp"} {
		for _, sz := range []struct {
			name       string
			size, reps int
		}{{"1k", 1 << 10, 400}, {"64k", 64 << 10, 200}, {"1m", 1 << 20, 30}} {
			us, rc, err := pingpong(tr, sz.size, sz.reps)
			if err != nil {
				return reconnects, fmt.Errorf("ping-pong %s %s: %w", tr, sz.name, err)
			}
			reconnects += rc
			lg.add(fmt.Sprintf("transport.pingpong_us.%s.%s", tr, sz.name), us, "us", sz.reps)
		}
	}
	for _, rg := range rungs {
		build, steps, exec, shape, rc, err := coreRung(rg.tr, rg.p, rg.count, rg.dt, rg.reps)
		if err != nil {
			return reconnects, fmt.Errorf("core rung %s: %w", rg.name, err)
		}
		reconnects += rc
		lg.add("core.build_us."+rg.name, build, "us", 20)
		lg.add("core.plan_steps."+rg.name, float64(steps), "count", 0)
		lg.add("core.execute_us_p50."+rg.name, exec, "us", rg.reps)
		mach, rc, err := calibrated(rg.tr, rg.p)
		if err != nil {
			return reconnects, fmt.Errorf("calibrate %s: %w", rg.name, err)
		}
		reconnects += rc
		pred := mach.Cost(model.AllReduce, shape, float64(rg.count*rg.dt.Size())) * 1e6
		lg.add("model.predicted_us."+rg.name, pred, "us", 0)
		gap := 0.0
		if pred > 0 {
			gap = exec / pred
		}
		lg.add("model.gap."+rg.name, gap, "ratio", 0)
		lg.printf("rung %s: shape %v, %d plan steps, build %.1f us, execute p50 %.1f us; calibrated model (α %.3g s, β %.3g s/B, γ %.3g s/B) predicts %.1f us: measured/predicted %.2f",
			rg.name, shape, steps, build, exec, mach.Alpha, mach.Beta, mach.Gamma, pred, gap)
	}
	lg.add("datatype.apply_ns_per_byte.f64sum", applyRung(datatype.Float64, 4<<10, 2000), "ns/B", 2000)
	lg.add("datatype.apply_ns_per_byte.f32sum", applyRung(datatype.Float32, 4<<20, 20), "ns/B", 20)
	return reconnects, nil
}

// progressProbe times the persistent and request handoff on chan p=8 for
// workloads whose recipe has no such call: a 1 KiB AllReduceInit
// Start/Wait and a 256 B IAllReduce/Wait, reps times each.
func progressProbe(reps int) ([]*callLog, error) {
	w, err := newWorld("chan", 8, modeRaw, nil)
	if err != nil {
		return nil, err
	}
	defer w.close()
	logs := make([]*callLog, 8)
	err = spmd(8, func(r int) error {
		l := &callLog{traced: true}
		logs[r] = l
		c := w.comms[r]
		send, recv := make([]byte, 8*persCount), make([]byte, 8*persCount)
		pers, err := c.AllReduceInit(send, recv, persCount, icc.Float64, icc.Sum)
		if err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			t := l.begin()
			if err := pers.Start(); err != nil {
				return err
			}
			l.phase(phPersistentStart, t)
			t = l.begin()
			if err := pers.Wait(); err != nil {
				return err
			}
			l.phase(phPersistentWait, t)
			t = l.begin()
			req, err := c.IAllReduce(send[:8*iaCount], recv[:8*iaCount], iaCount, icc.Float64, icc.Sum)
			if err != nil {
				return err
			}
			l.phase(phRequestIssue, t)
			t = l.begin()
			if err := req.Wait(); err != nil {
				return err
			}
			l.phase(phRequestWait, t)
		}
		return nil
	})
	return logs, err
}

// recoveryFigures adds the recovery metrics from a measured run.
func recoveryFigures(lg *ledger, rr recoveryRun, source string) {
	lg.add("icc.detect_us", median(rr.detect), "us", len(rr.detect))
	lg.add("icc.shrink_us", median(rr.shrink), "us", len(rr.shrink))
	lg.add("icc.successor_first_call_us", median(rr.firstCall), "us", len(rr.firstCall))
	per := 0.0
	if rr.steps > 0 {
		per = float64(rr.injected) / float64(rr.steps)
	}
	lg.add("faultnet.injected_per_cycle", per, "count", rr.steps)
	lg.printf("recovery (%s): %d cycles, detect p50 %.1f us, shrink p50 %.1f us, successor first call p50 %.1f us, faults injected %d",
		source, rr.steps, median(rr.detect), median(rr.shrink), median(rr.firstCall), rr.injected)
}
