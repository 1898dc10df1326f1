// Command perfbench is the repository's benchmark: it drives the library
// through its public entry points on four application-step workloads and
// prints end-to-end metrics (untraced) or a per-layer ledger (traced).
//
//	bash perfbench/run.sh --workload small-chan --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer → metric → workload map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	icc "repro"
)

// warmupFor is the untimed stretch run before each measured phase, which
// also sizes the stamp arrays.
const warmupFor = 500 * time.Millisecond

// maxTraced caps the traced phase, whose spans stay in memory.
const maxTraced = 5 * time.Second

// phases splits a run's measuring time: all of it untraced, or half
// untraced and up to half traced.
func phases(d time.Duration, traced bool) (untraced, tracedFor time.Duration) {
	if !traced {
		return d, 0
	}
	return d / 2, min(d/2, maxTraced)
}

var workloadNames = []string{"small-chan", "large-tcp", "shuffle-hier-tcp", "recovery-chan"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer ledger")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for span files")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if !known(o.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", o.workload, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	ok := true
	for _, name := range names {
		o.workload = name
		res := runOne(o)
		ok = ok && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is the host and build a result was measured on. Results from
// different hosts are reported side by side, never gated against each other.
type provenance struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func hostProvenance(o options) provenance {
	return provenance{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checkout's git HEAD without running git; a checkout
// that is not a git repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if h, r, ok := strings.Cut(line, " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// report collects what one workload run prints.
type report struct {
	o         options
	attempted int64
	failed    int64
	errs      []string
	e2e       []metric
	blocks    []block // the seconds of the timed phase
	notes     []string
	layer     ledger
}

func (rp *report) fail(err error) {
	if err != nil {
		rp.errs = append(rp.errs, err.Error())
	}
}

func (rp *report) count(ph *phase) {
	rp.attempted += ph.attempted
	rp.failed += ph.failed
	if ph.firstErr != nil {
		rp.fail(ph.firstErr)
	}
}

// runOne runs one workload and prints its report; the returned result is
// the line the caller prints last.
func runOne(o options) result {
	rp := &report{o: o}
	d := time.Duration(o.seconds) * time.Second
	if o.workload == "recovery-chan" {
		runRecoveryWorkload(rp, d)
	} else {
		runStepWorkload(rp, d)
	}
	return rp.print()
}

// endToEnd turns a measured phase and the set-up times into the
// end-to-end metrics. Each timing is the median over the phase's
// one-second blocks of that block's figure, so a burst of interference
// from outside the process moves it less than it would move a figure over
// all steps at once. Each block's timings are also scaled to the CPU the
// host left the machine in that block (see steal.go): a time by (1 − s),
// a rate by 1/(1 − s), where s is the block's share of CPU time stolen.
// On a 2-vCPU VM that share ranged from 0 to 36% within an hour and moved
// median step times by about the same factor; uncorrected medians are
// printed beside the metrics.
func endToEnd(ph phase, setups []float64) []metric {
	steps := float64(ph.steps)
	var p50, p90, rate, goodput []float64
	for _, b := range blocks(ph) {
		keep := 1 - b.steal
		p50, p90 = append(p50, b.p50*keep), append(p90, b.p90*keep)
		rate, goodput = append(rate, b.rate/keep), append(goodput, b.goodput/keep)
	}
	return []metric{
		{"step_p50_us", median(p50), "us", ph.steps},
		{"step_p90_us", median(p90), "us", ph.steps},
		{"steps_per_s", median(rate), "1/s", ph.steps},
		{"goodput_MBps", median(goodput) / 1e6, "MB/s", ph.steps},
		{"cpu_us_per_step", float64(ph.cpu.Microseconds()) / steps, "us", ph.steps},
		{"allocs_per_step", float64(ph.mallocs) / steps, "count", ph.steps},
		{"alloc_bytes_per_step", float64(ph.allocBytes) / steps, "B", ph.steps},
		{"live_heap_mb", ph.heapMiB, "MiB", ph.heapN},
		{"setup_s", median(setups), "s", len(setups)},
	}
}

// printedOnly are end-to-end figures the report prints but the result line
// leaves out, so BENCHMARK.json does not gate them. The 90th percentile
// grows with host steal far beyond the steal scaling (small-chan: 2.0 ms at
// 2% steal, 4.4 ms at 36%, where the scaled median held at 1.1-1.2 ms), so
// on a shared VM its spread between runs exceeds any bound a gate may use.
var printedOnly = map[string]bool{"step_p90_us": true}

// uncorrected returns the block medians without the steal scaling, and
// the phase's mean steal share.
func uncorrected(bs []block) (p50, p90, rate, steal float64) {
	var a, b, c []float64
	for _, bl := range bs {
		a, b, c = append(a, bl.p50), append(b, bl.p90), append(c, bl.rate)
		steal += bl.steal / float64(len(bs))
	}
	return median(a), median(b), median(c), steal
}

// block is one second of a phase: step time quantiles, steps per second
// and payload bytes per second.
type block struct{ p50, p90, rate, goodput, steal float64 }

// blocks splits a phase into one-second blocks of consecutive steps, by
// start time. A block's duration runs from its first step's start to the
// next block's first start (the phase end for the last block), so the
// oracle's between-step checks count as time. A last block shorter than
// half a second is dropped unless it is the only one.
func blocks(ph phase) []block {
	var out []block
	if ph.steps == 0 {
		return nil
	}
	phaseEnd := ph.stamps[0] + int64(ph.wall)
	first := 0
	for k := 1; k <= ph.steps; k++ {
		if k < ph.steps && ph.stamps[k]-ph.stamps[first] < int64(time.Second) {
			continue
		}
		end := phaseEnd
		if k < ph.steps {
			end = ph.stamps[k]
		}
		d := float64(end-ph.stamps[first]) / 1e9
		if d > 0 && (k < ph.steps || len(out) == 0 || d >= 0.5) {
			var bytes int64
			for _, b := range ph.bytes[first:k] {
				bytes += b
			}
			spans := ph.spans[first:k]
			out = append(out, block{p50: median(spans), p90: quantile(spans, 0.9),
				rate: float64(k-first) / d, goodput: float64(bytes) / d,
				steal: stealShare(ph.steal, ph.stamps[first], end)})
		}
		first = k
	}
	return out
}

// capFor sizes the stamp arrays from the warm-up rate, with headroom.
func capFor(ph phase, d time.Duration) int {
	if ph.steps == 0 || ph.wall <= 0 {
		return 1024
	}
	return int(2*float64(ph.steps)*d.Seconds()/ph.wall.Seconds()) + 1024
}

func runStepWorkload(rp *report, d time.Duration) {
	o := rp.o
	spec := stepWorkloads[o.workload](o.seed)
	s, setups, att, fail, err := setupStep(spec, modeRaw)
	rp.attempted += att
	rp.failed += fail
	if err != nil {
		rp.fail(err)
		return
	}
	warm := s.run(warmupFor, 1024)
	rp.count(&warm)
	measure, tracedFor := phases(d, o.trace)
	ph := s.run(measure, capFor(warm, measure))
	s.probeHeap(&ph)
	rp.count(&ph)
	rp.e2e = endToEnd(ph, setups)
	rp.blocks = blocks(ph)
	if spec.repeatShare != nil {
		share := spec.repeatShare(s.next)
		rp.notes = append(rp.notes, fmt.Sprintf("count-vector repeat share over %d steps: %.3f (the plan cache and shape memo can only hit on repeats)", s.next, share))
	}
	s.close()
	if ph.steps == 0 {
		rp.fail(errNoSteps)
		return
	}
	if !o.trace {
		return
	}

	// Traced run: the same workload and seed with spans on.
	ts, _, err := openSession(spec, modeTrace)
	if ts != nil {
		for _, l := range ts.logs {
			if l != nil {
				rp.attempted += l.attempted
				rp.failed += l.failed
			}
		}
	}
	if err != nil {
		rp.fail(fmt.Errorf("traced set-up: %w", err))
		if ts != nil {
			ts.close()
		}
		return
	}
	tw := ts.run(warmupFor, 1024)
	rp.count(&tw)
	stats0, planner0 := planStats(ts.comms)
	tph := ts.run(tracedFor, capFor(tw, tracedFor))
	rp.count(&tph)
	stats1, planner1 := planStats(ts.comms)
	ts.close()
	if tph.steps == 0 {
		rp.fail(errNoSteps)
		return
	}
	lg := &rp.layer
	spanLedger(lg, ts.w.rec, ts.logs, tph.steps, spec.clusters == nil)
	planFigures(lg, stats0, stats1, planner0, planner1, tph.steps)
	rp.fail(writeSpans(filepath.Join(o.out, "spans"), o, ts.w.rec, ts.logs, 256))
	rp.fail(phaseStats(lg, ts.logs))
	rr, _ := runRecovery(o.seed, 0, 2*time.Second, modeRaw)
	rp.count(&rr.phase)
	recoveryFigures(lg, rr, "ladder probe: recovery-chan cycles")
	traceFigures(lg, ph, tph)
	rp.ladder(ts.w.reconnects() + s.w.reconnects())
	rp.equivalence()
}

func planFigures(lg *ledger, s0, s1 icc.PlanCacheStats, planner0, planner1 int64, steps int) {
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	lg.add("icc.plan_cache.hit_ratio", ratio, "ratio", int(hits+misses))
	lg.add("icc.plan_cache.hits_per_step", float64(hits)/float64(steps), "count", steps)
	lg.add("icc.plan_cache.misses_per_step", float64(misses)/float64(steps), "count", steps)
	lg.add("icc.plan_cache.entries", float64(s1.Entries), "count", 0)
	lg.add("icc.planner_calls", float64(planner1-planner0), "count", 0)
	lg.printf("plan cache over the traced phase: %d hits, %d misses (hit ratio %.3f), %d entries; planner calls %d",
		hits, misses, ratio, s1.Entries, planner1-planner0)
}

// traceFigures reports the tracing overhead: traced minus untraced median
// step time of the same workload and seed.
func traceFigures(lg *ledger, untraced, traced phase) {
	u, t := median(untraced.spans), median(traced.spans)
	lg.add("trace.untraced_step_p50_us", u, "us", untraced.steps)
	lg.add("trace.traced_step_p50_us", t, "us", traced.steps)
	lg.add("trace.overhead_us", t-u, "us", traced.steps)
	lg.add("runtime.gc_per_kstep", 1000*float64(untraced.gcs)/float64(untraced.steps), "count", untraced.steps)
	lg.printf("tracing overhead: step p50 %.1f us traced − %.1f us untraced = %.1f us", t, u, t-u)
}

// ladder runs the layer rungs and the tcp reconnect count.
func (rp *report) ladder(reconnects int64) {
	rc, err := ladder(&rp.layer)
	rp.fail(err)
	rp.layer.add("tcp.reconnects", float64(reconnects+rc), "count", 0)
}

// equivalence checks that the traced and untraced programs are the same:
// identical plan-cache statistics, planner calls and transport calls on a
// fixed number of steps of the same seed.
func (rp *report) equivalence() {
	msg, err := equivalent(rp.o.workload, rp.o.seed, equivalenceSteps(rp.o.workload))
	rp.layer.printf("%s", msg)
	if err != nil {
		rp.failed++
		rp.fail(err)
	}
}

func runRecoveryWorkload(rp *report, d time.Duration) {
	o := rp.o
	setups, err := timeSetups(func() (float64, error) {
		t, logs, _, err := recoverySetup(modeRaw)
		for _, l := range logs {
			rp.attempted += l.attempted
			rp.failed += l.failed
		}
		return t, err
	})
	if err != nil {
		rp.fail(fmt.Errorf("set-up: %w", err))
		return
	}
	warm, next := runRecovery(o.seed, 1, warmupFor, modeRaw)
	rp.count(&warm.phase)
	measure, tracedFor := phases(d, o.trace)
	rr, next := runRecovery(o.seed, next, measure, modeRaw)
	rp.count(&rr.phase)
	rp.e2e = endToEnd(rr.phase, setups)
	rp.blocks = blocks(rr.phase)
	if rr.steps == 0 {
		rp.fail(errNoSteps)
		return
	}
	if !o.trace {
		return
	}
	tr, _ := runRecovery(o.seed, next, tracedFor, modeTrace)
	rp.count(&tr.phase)
	if tr.steps == 0 {
		rp.fail(errNoSteps)
		return
	}
	lg := &rp.layer
	rec, logs := mergeCycles(tr.cycles)
	spanLedger(lg, rec, logs, tr.steps, true)
	var stats icc.PlanCacheStats
	var planner int64
	for _, cy := range tr.cycles {
		stats.Entries += cy.stats.Entries
		stats.Hits += cy.stats.Hits
		stats.Misses += cy.stats.Misses
		planner += cy.planner
	}
	planFigures(lg, icc.PlanCacheStats{}, stats, 0, planner, tr.steps)
	rp.fail(writeSpans(filepath.Join(o.out, "spans"), o, rec, logs, 256))
	recoveryFigures(lg, tr, "workload")
	rp.fail(phaseStats(lg, logs))
	traceFigures(lg, rr.phase, tr.phase)
	rp.ladder(0)
	rp.equivalence()
}

// mergeCycles concatenates the traces of sequential cycles: time stamps
// share one origin, so the spans of different cycles never interleave.
func mergeCycles(cycles []*cycle) (*recorder, []*callLog) {
	rec := newRecorder(recP, true)
	logs := make([]*callLog, recP)
	for r := range logs {
		logs[r] = &callLog{traced: true}
	}
	for _, cy := range cycles {
		for r := 0; r < recP; r++ {
			src := cy.rec.ranks[r]
			dst := rec.ranks[r]
			for i := range dst.count {
				dst.count[i] += src.count[i]
			}
			dst.bytes += src.bytes
			dst.ops = append(dst.ops, src.ops...)
			logs[r].spans = append(logs[r].spans, cy.logs[r].spans...)
		}
	}
	return rec, logs
}

// writeSpans writes the traced phase's spans of the first maxSteps steps
// as tab-separated lines: layer, name, rank, step, start_ns, end_ns,
// parent (index of the containing icc span on that rank, -1 for none),
// bytes.
func writeSpans(dir string, o options, rec *recorder, logs []*callLog, maxSteps int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer\tname\trank\tstep\tstart_ns\tend_ns\tparent\tbytes")
	for r, rl := range rec.ranks {
		calls := make([]cspan, len(logs[r].spans))
		for i, c := range logs[r].spans {
			calls[i] = c.cspan
		}
		if len(calls) == 0 {
			continue
		}
		last := calls[0].step + int32(maxSteps)
		for _, c := range logs[r].spans {
			if c.step < last {
				fmt.Fprintf(bw, "icc\t%s\t%d\t%d\t%d\t%d\t-1\t%d\n", kindNames[c.kind], r, c.step, c.start, c.end, c.bytes)
			}
		}
		ops := append([]tspan(nil), rl.ops...)
		sort.Slice(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
		parent := contained(calls, ops)
		for i, op := range ops {
			step := int32(-1)
			if j := parent[i]; j >= 0 {
				step = calls[j].step
			}
			if step >= 0 && step < last {
				fmt.Fprintf(bw, "transport\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n", opNames[op.op], r, step, op.start, op.end, parent[i], op.bytes)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print writes the human-readable report to stdout and returns the result.
func (rp *report) print() result {
	o := rp.o
	prov, _ := json.Marshal(hostProvenance(o))
	fmt.Printf("perfbench %s seed %d: %s\n", o.workload, o.seed, describe(o.workload))
	fmt.Printf("host %s\n", prov)
	res := result{Attempted: rp.attempted, Failed: rp.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = rp.failed == 0 && len(rp.errs) == 0 && len(rp.e2e) > 0
	ratio := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("end-to-end, untraced (closed loop, one step in flight per rank):\n")
	for _, m := range rp.e2e {
		note := ""
		if printedOnly[m.name] {
			note = " (printed, not gated)"
		}
		fmt.Printf("  %-22s %14.4f %-6s n=%d%s\n", m.name, m.value, m.unit, m.n, note)
		if !o.trace && !printedOnly[m.name] {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	fmt.Printf("  %-22s %14.4f %-6s (%d failed / %d attempted calls)\n", "fail_ratio", ratio, "ratio", res.Failed, res.Attempted)
	if len(rp.blocks) > 0 {
		p50, p90, rate, steal := uncorrected(rp.blocks)
		fmt.Printf("  host steal %.1f%% of CPU on average; without the steal scaling: step_p50_us %.4f, step_p90_us %.4f, steps_per_s %.4f\n",
			100*steal, p50, p90, rate)
	}
	fmt.Printf("  per second of the timed phase, step p50 us/p90 us/host steal %%:")
	for _, b := range rp.blocks {
		fmt.Printf(" %.0f/%.0f/%.1f", b.p50, b.p90, 100*b.steal)
	}
	fmt.Println()
	for _, n := range rp.notes {
		fmt.Printf("  %s\n", n)
	}
	if o.trace {
		fmt.Printf("per-layer ledger (traced run):\n")
		for _, line := range rp.layer.lines {
			fmt.Printf("  %s\n", line)
		}
		for _, m := range rp.layer.metrics {
			fmt.Printf("  %-42s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	for _, e := range rp.errs {
		fmt.Fprintf(os.Stderr, "perfbench %s: %s\n", o.workload, e)
		res.Correct = false
	}
	return res
}
