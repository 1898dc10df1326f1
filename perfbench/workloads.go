package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	icc "repro"
)

// rankWork is one rank's share of a step workload: its buffers, the
// recipe it runs each step, and the oracle that checks the step's outputs.
type rankWork interface {
	// fill writes step k's inputs (untimed).
	fill(k int)
	// step runs step k's call recipe (timed), accounting each call in l.
	step(k int, l *callLog)
	// check compares step k's outputs with their closed form (untimed) and
	// returns a bit per wrong call.
	check(k int) uint64
	// payload is the user payload bytes of all calls of step k.
	payload(k int) int64
}

// stepSpec describes a step workload: its world and its per-rank recipe.
type stepSpec struct {
	transport string
	p         int
	opts      []icc.Option
	clusters  map[int]int // non-nil: attach this two-level partition
	newRank   func(c *icc.Comm) (rankWork, error)
	// repeatShare, when set, reports the share of steps in [0, n) whose
	// count vectors already occurred in an earlier step.
	repeatShare func(n int) float64
}

// stepWorkloads maps a workload name to its spec for a seed.
var stepWorkloads = map[string]func(seed int64) stepSpec{
	"small-chan":       smallChan,
	"large-tcp":        largeTCP,
	"shuffle-hier-tcp": shuffleHierTCP,
}

var le = binary.LittleEndian

func putF64(b []byte, i int, v float64) { le.PutUint64(b[8*i:], math.Float64bits(v)) }
func getF64(b []byte, i int) float64    { return math.Float64frombits(le.Uint64(b[8*i:])) }

// smallVal is the input oracle of the small vectors: integer values in
// [-8, 8], so every sum over at most 8 ranks is exact in any order. salt
// separates the calls of one step.
func smallVal(r, i, k, salt int) float64 {
	return float64((r*7+i*3+k*5+salt*11)%17 - 8)
}

func smallSum(p, i, k, salt int) float64 {
	s := 0.0
	for r := 0; r < p; r++ {
		s += smallVal(r, i, k, salt)
	}
	return s
}

func fillSmall(b []byte, n, r, k, salt int) {
	for i := 0; i < n; i++ {
		putF64(b, i, smallVal(r, i, k, salt))
	}
}

// sumOK checks an all-reduce (or reduce) result of n elements.
func sumOK(b []byte, n, p, k, salt int) bool {
	for i := 0; i < n; i++ {
		if getF64(b, i) != smallSum(p, i, k, salt) {
			return false
		}
	}
	return true
}

func valsOK(b []byte, n, r, k, salt int) bool {
	for i := 0; i < n; i++ {
		if getF64(b, i) != smallVal(r, i, k, salt) {
			return false
		}
	}
	return true
}

// ---- small-chan ---------------------------------------------------------

const (
	persCount = 128 // 1 KiB persistent all-reduce
	iaCount   = 32  // 256 B non-blocking all-reduce
)

// smallRecipe is one step's sizes and roots; a run draws each step's
// recipe from a seeded pool, so the cost of a run does not hinge on one
// draw of sizes.
type smallRecipe struct {
	ar                         [3]int
	bcN, bcRoot, redN, redRoot int
}

const smallPool = 64

type smallRank struct {
	c                    *icc.Comm
	r, p                 int
	seed                 int64
	pool                 []smallRecipe
	cur                  smallRecipe
	arSend, arRecv       [3][]byte
	bc, redSend, redRecv []byte
	persSend, persRecv   []byte
	iaSend, iaRecv       []byte
	pers                 *icc.Persistent
}

// stratified draws n values from [lo, hi] one per equal-width stratum, in
// random order, so every pool has nearly the same mean.
func stratified(rng *rand.Rand, n, lo, hi int) []int {
	width := (hi - lo + 1) / n
	out := make([]int, n)
	for j, s := range rng.Perm(n) {
		out[j] = lo + s*width + rng.Intn(width)
	}
	return out
}

// pick maps (seed, step) to a uniform value in [0, n).
func pick(seed int64, k, n int) int {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x % uint64(n))
}

// smallChan: the iterative-solver pattern on chan, p=8. Per-message
// software overhead dominates every call.
func smallChan(seed int64) stepSpec {
	const p = 8
	rng := rand.New(rand.NewSource(seed))
	pool := make([]smallRecipe, smallPool)
	var sizes [5][]int
	for i := range sizes {
		sizes[i] = stratified(rng, smallPool, 1, 512)
	}
	for j := range pool {
		pool[j] = smallRecipe{ar: [3]int{sizes[0][j], sizes[1][j], sizes[2][j]},
			bcN: sizes[3][j], bcRoot: rng.Intn(p), redN: sizes[4][j], redRoot: rng.Intn(p)}
	}
	return stepSpec{
		transport: "chan", p: p,
		newRank: func(c *icc.Comm) (rankWork, error) {
			s := &smallRank{c: c, r: c.Rank(), p: c.Size(), seed: seed, pool: pool}
			for i := range s.arSend {
				s.arSend[i], s.arRecv[i] = make([]byte, 8*512), make([]byte, 8*512)
			}
			s.bc = make([]byte, 8*512)
			s.redSend, s.redRecv = make([]byte, 8*512), make([]byte, 8*512)
			s.persSend, s.persRecv = make([]byte, 8*persCount), make([]byte, 8*persCount)
			s.iaSend, s.iaRecv = make([]byte, 8*iaCount), make([]byte, 8*iaCount)
			var err error
			s.pers, err = c.AllReduceInit(s.persSend, s.persRecv, persCount, icc.Float64, icc.Sum)
			return s, err
		},
	}
}

func (s *smallRank) fill(k int) {
	s.cur = s.pool[pick(s.seed, k, smallPool)]
	for i, n := range s.cur.ar {
		fillSmall(s.arSend[i], n, s.r, k, i)
	}
	if s.r == s.cur.bcRoot {
		fillSmall(s.bc, s.cur.bcN, s.r, k, 3)
	}
	fillSmall(s.redSend, s.cur.redN, s.r, k, 4)
	fillSmall(s.persSend, persCount, s.r, k, 6)
	fillSmall(s.iaSend, iaCount, s.r, k, 7)
}

func (s *smallRank) step(k int, l *callLog) {
	c := s.c
	rc := &s.cur
	for i, n := range rc.ar {
		t := l.begin()
		l.done(kAllReduce, t, s.p, 8*n, c.AllReduce(s.arSend[i], s.arRecv[i], n, icc.Float64, icc.Sum))
	}
	t := l.begin()
	l.done(kBcast, t, s.p, 8*rc.bcN, c.Bcast(s.bc, rc.bcN, icc.Float64, rc.bcRoot))
	t = l.begin()
	l.done(kReduce, t, s.p, 8*rc.redN, c.Reduce(s.redSend, s.redRecv, rc.redN, icc.Float64, icc.Sum, rc.redRoot))
	t = l.begin()
	l.done(kBarrier, t, s.p, 0, c.Barrier())

	t = l.begin()
	err := s.pers.Start()
	l.phase(phPersistentStart, t)
	if err == nil {
		t2 := l.begin()
		err = s.pers.Wait()
		l.phase(phPersistentWait, t2)
	}
	l.done(kPersistent, t, s.p, 8*persCount, err)

	t = l.begin()
	req, err := c.IAllReduce(s.iaSend, s.iaRecv, iaCount, icc.Float64, icc.Sum)
	l.phase(phRequestIssue, t)
	if err == nil {
		t2 := l.begin()
		err = req.Wait()
		l.phase(phRequestWait, t2)
	}
	l.done(kIAllReduce, t, s.p, 8*iaCount, err)
}

func (s *smallRank) check(k int) uint64 {
	var bad uint64
	rc := &s.cur
	for i, n := range rc.ar {
		if !sumOK(s.arRecv[i], n, s.p, k, i) {
			bad |= 1 << i
		}
	}
	if !valsOK(s.bc, rc.bcN, rc.bcRoot, k, 3) {
		bad |= 1 << 3
	}
	if s.r == rc.redRoot && !sumOK(s.redRecv, rc.redN, s.p, k, 4) {
		bad |= 1 << 4
	}
	if !sumOK(s.persRecv, persCount, s.p, k, 6) {
		bad |= 1 << 6
	}
	if !sumOK(s.iaRecv, iaCount, s.p, k, 7) {
		bad |= 1 << 7
	}
	return bad
}

func (s *smallRank) payload(k int) int64 {
	rc := s.pool[pick(s.seed, k, smallPool)]
	n := rc.bcN + rc.redN + persCount + iaCount
	for _, a := range rc.ar {
		n += a
	}
	return int64(8 * n)
}

// ---- large-tcp ----------------------------------------------------------

const (
	largeCount   = 1 << 20 // float32 elements: the 4 MiB all-reduce and reduce-scatter
	largePerRank = 1 << 18 // float32 elements: 1 MiB collect block and broadcast
)

// pattern holds float32 values j&15 for j in [0, n+16); a slice of it at
// element offset o is the vector i ↦ (i+o)&15, so per-step inputs and
// expected outputs are sub-slices rather than fresh fills.
type pattern []byte

func newPattern(n int, val func(j int) float32) pattern {
	b := make([]byte, 4*(n+16))
	for j := 0; j < n+16; j++ {
		le.PutUint32(b[4*j:], math.Float32bits(val(j&15)))
	}
	return b
}

func (pt pattern) at(off, n int) []byte { return pt[4*(off&15) : 4*((off&15)+n)] }

type largeRank struct {
	c          *icc.Comm
	r, p       int
	root       int
	in, sum    pattern
	counts     []int
	arRecv     []byte
	rsRecv     []byte
	collRecv   []byte
	bc         []byte
	arIn, rsIn []byte
	collIn     []byte
}

// largeTCP: one data-parallel training step on loopback tcp, p=4. Bytes
// dominate: framing, copies and the combine kernel.
func largeTCP(seed int64) stepSpec {
	const p = 4
	rng := rand.New(rand.NewSource(seed))
	root := rng.Intn(p)
	in := newPattern(largeCount, func(j int) float32 { return float32(j) })
	// sum holds Σ_r ((j + 3r) & 15): rank r's input at step offset o is
	// in.at(3r+o), so the all-reduce of step offset o is sum.at(o).
	sum := newPattern(largeCount, func(j int) float32 {
		s := 0
		for r := 0; r < p; r++ {
			s += (j + 3*r) & 15
		}
		return float32(s)
	})
	return stepSpec{
		transport: "tcp", p: p,
		newRank: func(c *icc.Comm) (rankWork, error) {
			counts := make([]int, p)
			for i := range counts {
				counts[i] = largeCount / p
			}
			return &largeRank{
				c: c, r: c.Rank(), p: p, root: root, in: in, sum: sum, counts: counts,
				arRecv:   make([]byte, 4*largeCount),
				rsRecv:   make([]byte, 4*largeCount/p),
				collRecv: make([]byte, 4*largePerRank*p),
				bc:       make([]byte, 4*largePerRank),
			}, nil
		},
	}
}

func (s *largeRank) fill(k int) {
	s.arIn = s.in.at(3*s.r+5*k, largeCount)
	s.rsIn = s.in.at(3*s.r+5*k+7, largeCount)
	s.collIn = s.in.at(3*s.r+5*k+3, largePerRank)
	if s.r == s.root {
		copy(s.bc, s.in.at(5*k+11, largePerRank))
	}
}

func (s *largeRank) step(k int, l *callLog) {
	c := s.c
	t := l.begin()
	l.done(kAllReduce, t, s.p, 4*largeCount, c.AllReduce(s.arIn, s.arRecv, largeCount, icc.Float32, icc.Sum))
	t = l.begin()
	l.done(kReduceScatter, t, s.p, 4*largeCount, c.ReduceScatter(s.rsIn, s.counts, s.rsRecv, icc.Float32, icc.Sum))
	t = l.begin()
	l.done(kCollect, t, s.p, 4*largePerRank*s.p, c.Collect(s.collIn, s.collRecv, largePerRank, icc.Float32))
	t = l.begin()
	l.done(kBcast, t, s.p, 4*largePerRank, c.Bcast(s.bc, largePerRank, icc.Float32, s.root))
}

func (s *largeRank) check(k int) uint64 {
	var bad uint64
	if !bytes.Equal(s.arRecv, s.sum.at(5*k, largeCount)) {
		bad |= 1
	}
	// Rank r's reduce-scatter block starts at element r·count/p, a multiple
	// of the pattern period, so it equals the whole vector's first block.
	if !bytes.Equal(s.rsRecv, s.sum.at(5*k+7, largeCount/s.p)) {
		bad |= 2
	}
	for q := 0; q < s.p; q++ {
		blk := s.collRecv[4*largePerRank*q : 4*largePerRank*(q+1)]
		if !bytes.Equal(blk, s.in.at(3*q+5*k+3, largePerRank)) {
			bad |= 4
		}
	}
	if !bytes.Equal(s.bc, s.in.at(5*k+11, largePerRank)) {
		bad |= 8
	}
	return bad
}

func (s *largeRank) payload(int) int64 {
	return 4 * int64(largeCount+largeCount+largePerRank*s.p+largePerRank)
}

// ---- shuffle-hier-tcp ---------------------------------------------------

const (
	shuffleP     = 4
	poolSize     = 64
	maxPairCount = 2047
	a2aCount     = 512 // float64 elements per pair: 4 KiB
	shuffleAR    = 64
)

// shufflePool is the seeded set of count matrices and the step → matrix
// draw, Zipf-distributed so a few matrices recur often and most rarely.
// Every row of every matrix, and every Collectv count vector, sums to
// rowTotal: matrices differ in how counts spread over pairs, not in how
// much a step moves, so a run's cost does not hinge on which matrices the
// Zipf head happens to hold.
type shufflePool struct {
	seed  int64
	mats  [poolSize][shuffleP][shuffleP]int
	colls [poolSize][shuffleP]int
	cdf   [poolSize]float64
}

const rowTotal = 4096

// composition splits total into len(out) parts of at most maxPairCount.
func composition(rng *rand.Rand, out []int, total int) {
	for {
		cuts := make([]int, 0, len(out)+1)
		cuts = append(cuts, 0, total)
		for i := 1; i < len(out); i++ {
			cuts = append(cuts, rng.Intn(total+1))
		}
		sort.Ints(cuts)
		ok := true
		for i := range out {
			out[i] = cuts[i+1] - cuts[i]
			ok = ok && out[i] <= maxPairCount
		}
		if ok {
			return
		}
	}
}

func newShufflePool(seed int64) *shufflePool {
	sp := &shufflePool{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	for m := range sp.mats {
		for i := range sp.mats[m] {
			composition(rng, sp.mats[m][i][:], rowTotal)
		}
		composition(rng, sp.colls[m][:], rowTotal)
	}
	total := 0.0
	for i := range sp.cdf {
		total += 1 / math.Pow(float64(i+1), 1.1)
		sp.cdf[i] = total
	}
	for i := range sp.cdf {
		sp.cdf[i] /= total
	}
	return sp
}

// pick returns step k's matrix index, a pure function of (seed, k).
func (sp *shufflePool) pick(k int) int {
	u := float64(pick(sp.seed, k, 1<<30)) / (1 << 30)
	return sort.SearchFloat64s(sp.cdf[:], u)
}

func (sp *shufflePool) repeatShare(n int) float64 {
	if n == 0 {
		return 0
	}
	var seen [poolSize]bool
	rep := 0
	for k := 0; k < n; k++ {
		m := sp.pick(k)
		if seen[m] {
			rep++
		}
		seen[m] = true
	}
	return float64(rep) / float64(n)
}

type shuffleRank struct {
	c                  *icc.Comm
	r, p               int
	pool               *shufflePool
	m                  int // this step's matrix
	sendCounts, recvC  []int
	collCounts         []int
	a2avSend, a2avRecv []byte
	collSend, collRecv []byte
	a2aSend, a2aRecv   []byte
	arSend, arRecv     []byte
}

// shuffleHierTCP: irregular exchange through the hierarchical composer on
// loopback tcp, p=4, two nodes with ranks dealt round-robin.
func shuffleHierTCP(seed int64) stepSpec {
	pool := newShufflePool(seed)
	return stepSpec{
		transport: "tcp", p: shuffleP,
		opts:        []icc.Option{icc.WithAlg(icc.AlgHier)},
		clusters:    map[int]int{0: 0, 1: 1, 2: 0, 3: 1},
		repeatShare: pool.repeatShare,
		newRank: func(c *icc.Comm) (rankWork, error) {
			p := c.Size()
			return &shuffleRank{
				c: c, r: c.Rank(), p: p, pool: pool,
				sendCounts: make([]int, p), recvC: make([]int, p), collCounts: make([]int, p),
				a2avSend: make([]byte, 8*maxPairCount*p), a2avRecv: make([]byte, 8*maxPairCount*p),
				collSend: make([]byte, 8*maxPairCount), collRecv: make([]byte, 8*maxPairCount*p),
				a2aSend: make([]byte, 8*a2aCount*p), a2aRecv: make([]byte, 8*a2aCount*p),
				arSend: make([]byte, 8*shuffleAR), arRecv: make([]byte, 8*shuffleAR),
			}, nil
		},
	}
}

func a2avVal(from, to, e, k int) float64 { return float64((from*5 + to*3 + e + k*7) % 13) }
func collVal(q, e, k int) float64        { return float64((q*3 + e + k*5) % 11) }
func a2aVal(from, to, e, k int) float64  { return float64((from*3 + to*5 + e + k) % 9) }

func (s *shuffleRank) fill(k int) {
	s.m = s.pool.pick(k)
	mat := &s.pool.mats[s.m]
	off := 0
	for j := 0; j < s.p; j++ {
		s.sendCounts[j] = mat[s.r][j]
		s.recvC[j] = mat[j][s.r]
		s.collCounts[j] = s.pool.colls[s.m][j]
		for e := 0; e < s.sendCounts[j]; e++ {
			putF64(s.a2avSend, off+e, a2avVal(s.r, j, e, k))
		}
		off += s.sendCounts[j]
	}
	for e := 0; e < s.collCounts[s.r]; e++ {
		putF64(s.collSend, e, collVal(s.r, e, k))
	}
	for j := 0; j < s.p; j++ {
		for e := 0; e < a2aCount; e++ {
			putF64(s.a2aSend, j*a2aCount+e, a2aVal(s.r, j, e, k))
		}
	}
	fillSmall(s.arSend, shuffleAR, s.r, k, 0)
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func (s *shuffleRank) step(k int, l *callLog) {
	c := s.c
	t := l.begin()
	l.done(kAllToAllv, t, s.p, 8*sumInts(s.sendCounts),
		c.AllToAllv(s.a2avSend, s.sendCounts, s.a2avRecv, s.recvC, icc.Float64))
	t = l.begin()
	l.done(kCollectv, t, s.p, 8*sumInts(s.collCounts), c.Collectv(s.collSend, s.collCounts, s.collRecv, icc.Float64))

	t = l.begin()
	req, err := c.IAllToAll(s.a2aSend, s.a2aRecv, a2aCount, icc.Float64)
	l.phase(phRequestIssue, t)
	if err == nil {
		t2 := l.begin()
		err = req.Wait()
		l.phase(phRequestWait, t2)
	}
	l.done(kIAllToAll, t, s.p, 8*a2aCount*s.p, err)

	t = l.begin()
	l.done(kAllReduce, t, s.p, 8*shuffleAR, c.AllReduce(s.arSend, s.arRecv, shuffleAR, icc.Float64, icc.Sum))
}

func (s *shuffleRank) check(k int) uint64 {
	var bad uint64
	off := 0
	for j := 0; j < s.p; j++ {
		for e := 0; e < s.recvC[j]; e++ {
			if getF64(s.a2avRecv, off+e) != a2avVal(j, s.r, e, k) {
				bad |= 1
			}
		}
		off += s.recvC[j]
	}
	off = 0
	for q := 0; q < s.p; q++ {
		for e := 0; e < s.collCounts[q]; e++ {
			if getF64(s.collRecv, off+e) != collVal(q, e, k) {
				bad |= 2
			}
		}
		off += s.collCounts[q]
	}
	for j := 0; j < s.p; j++ {
		for e := 0; e < a2aCount; e++ {
			if getF64(s.a2aRecv, j*a2aCount+e) != a2aVal(j, s.r, e, k) {
				bad |= 4
			}
		}
	}
	if !sumOK(s.arRecv, shuffleAR, s.p, k, 0) {
		bad |= 8
	}
	return bad
}

func (s *shuffleRank) payload(int) int64 {
	return int64(8 * (rowTotal*s.p + rowTotal + a2aCount*s.p*s.p + shuffleAR))
}

// describe summarizes a spec's recipe for the report.
func describe(name string) string {
	switch name {
	case "small-chan":
		return "chan p=8: allreduce f64 ×3 (1-512 elements), bcast and reduce ≤ 4 KiB, barrier, persistent allreduce 1 KiB, iallreduce 256 B; sizes and roots drawn per step from a seeded pool of 64 recipes"
	case "large-tcp":
		return "tcp p=4: allreduce f32 4 MiB, reducescatter 4 MiB, collect 1 MiB/rank, bcast 1 MiB"
	case "shuffle-hier-tcp":
		return "tcp p=4 AlgHier, nodes [0 1 0 1]: alltoallv f64 (Zipf over 64 count matrices, 0-2047/pair, 4096/row), collectv (4096 in all), ialltoall 4 KiB/pair, allreduce 64 f64"
	case "recovery-chan":
		return "chan p=8 per cycle: verified allreduce 1 KiB, armed fail-stop allreduce 1 KiB, Shrink, verified allreduce 1 KiB + bcast 1 KiB on the successor"
	}
	return ""
}
