package main

import (
	"fmt"

	icc "repro"
)

// fingerprint is what must not change when a run is traced: the library's
// plan-cache and planner decisions, and the transport calls it makes.
type fingerprint struct {
	stats   icc.PlanCacheStats
	planner int64
	ops     [nOps]int64
	bytes   int64
}

// equivalenceSteps is the fixed step count of the equivalence probe.
func equivalenceSteps(name string) int {
	if name == "large-tcp" {
		return 4
	}
	return 48
}

// probe runs a fixed number of steps of a workload in one mode on a fresh
// world. For recovery-chan it runs the fault-free recipe calls: the
// recovery protocol's own message count depends on which survivor detects
// the failure first, so it is not a fixed property of the program.
func probe(name string, seed int64, m mode, steps int) (fingerprint, error) {
	var fp fingerprint
	var comms []*icc.Comm
	var rec *recorder
	if name == "recovery-chan" {
		_, _, w, err := recoverySetup(m)
		if err != nil {
			return fp, err
		}
		comms, rec = w.comms, w.rec
	} else {
		s, _, err := openSession(stepWorkloads[name](seed), m)
		if err != nil {
			if s != nil {
				s.close()
			}
			return fp, err
		}
		err = s.runFixed(steps)
		s.close()
		if err != nil {
			return fp, err
		}
		comms, rec = s.comms, s.w.rec
	}
	fp.stats, fp.planner = planStats(comms)
	if rec != nil {
		fp.ops, fp.bytes = rec.counts()
	}
	return fp, nil
}

func probeScope(name string, steps int) string {
	if name == "recovery-chan" {
		return "fault-free set-up calls"
	}
	return fmt.Sprintf("set-up step + %d steps (transport calls over the %d)", steps, steps)
}

// equivalent compares the untraced program (the transport's own endpoints),
// the counting wrapper, and the tracing wrapper on the same seed.
func equivalent(name string, seed int64, steps int) (string, error) {
	var fps [3]fingerprint
	for i, m := range []mode{modeRaw, modeCount, modeTrace} {
		fp, err := probe(name, seed, m, steps)
		if err != nil {
			return "equivalence probe failed", fmt.Errorf("equivalence probe: %w", err)
		}
		fps[i] = fp
	}
	raw, count, traced := fps[0], fps[1], fps[2]
	msg := fmt.Sprintf("equivalence, seed %d, %s: plan cache %+v / %+v / %+v (untraced / counting / traced), "+
		"planner calls %d / %d / %d, transport calls send %d recv %d sendrecv %d, %d bytes (counting) vs %d %d %d, %d bytes (traced)",
		seed, probeScope(name, steps), raw.stats, count.stats, traced.stats, raw.planner, count.planner, traced.planner,
		count.ops[opSend], count.ops[opRecv], count.ops[opSendRecv], count.bytes,
		traced.ops[opSend], traced.ops[opRecv], traced.ops[opSendRecv], traced.bytes)
	if raw.stats != traced.stats || raw.stats != count.stats || raw.planner != traced.planner ||
		raw.planner != count.planner || count.ops != traced.ops || count.bytes != traced.bytes {
		return msg + ": DIFFERENT", fmt.Errorf("traced and untraced runs differ: %s", msg)
	}
	return msg + ": identical", nil
}
