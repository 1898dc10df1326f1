// Package chantransport implements the transport.Endpoint interface over Go
// channels: p ranks inside one process, one buffered channel per ordered
// (sender, receiver) pair. It is the reference functional substrate — fast,
// deterministic in matching (FIFO per pair), and with optional receive
// timeouts so that a deadlocked collective fails a test instead of hanging
// it.
//
// Short collectives are bound by the per-message start-up cost, so a
// healthy send, receive or exchange allocates nothing and takes no lock
// shared between ranks:
//
//   - The abort state every operation checks (poison, epoch, abort channel,
//     dead set) is an immutable snapshot behind an atomic pointer; abort and
//     Reset publish a new one under the world's mutex.
//   - Payloads are copied on send into buffers drawn from the transport
//     package's shared size-class pool, and return to it once the receiver
//     has copied them out.
//   - SendRecv enqueues inline while the pair queue has room and starts a
//     send goroutine only when it is full.
//   - A receive arms a timeout only when it has to block, with a timer
//     taken from a pool of stopped timers.
package chantransport

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

type message struct {
	tag   transport.Tag
	epoch int     // sender's epoch at send time; receivers drop older frames
	buf   *[]byte // pooled copy of the sender's payload, nil when empty
}

// newMessage copies p into a pooled buffer.
func newMessage(tag transport.Tag, p []byte) message {
	return message{tag: tag, buf: transport.CopyBuf(p)}
}

// payload returns the message's copy of the sender's bytes.
func (m *message) payload() []byte {
	if m.buf == nil {
		return nil
	}
	return *m.buf
}

// free returns the message's buffer to its pool. The message must not be
// used afterwards.
func (m *message) free() {
	transport.PutBuf(m.buf)
	m.buf = nil
}

// World is a set of size ranks wired pairwise with buffered channels.
//
// Abort state is world-shared (the in-process form of an out-of-band
// broadcast) and generational: an abort poisons the current epoch, and a
// survivor's Reset clears the poison and opens the next epoch. Each
// endpoint acknowledges epochs individually, so a rank that has not yet
// observed a cleared abort keeps failing fast (wrapping ErrStaleEpoch and
// the abort that ended its epoch) instead of silently joining traffic it
// never agreed to.
type World struct {
	size    int
	queue   [][]chan message // queue[src][dst]
	timeout time.Duration

	mu    sync.Mutex                 // serialises abort and Reset, the writers of state
	state atomic.Pointer[worldState] // read without locking by every operation
}

// worldState is one immutable snapshot of a world's abort state. Writers
// copy the current snapshot, change the copy and publish it.
type worldState struct {
	poison     *transport.AbortError // current uncleared abort, nil when clear
	lastPoison *transport.AbortError // most recent abort, kept for late observers
	epoch      int                   // number of cleared poison generations
	abortCh    chan struct{}         // closed by the current poison; remade on clear
	dead       []int                 // sorted world ranks agreed dead
}

// abort poisons the world: every pending and future operation on any rank
// fails with an error wrapping both transport.ErrAborted and
// transport.ErrPeerFailed. Concurrent aborts merge their failed sets into
// a copy of the first; an abort whose failed set carries no news relative
// to the already-agreed dead set is suppressed (it is a late duplicate from
// a failure the survivors have already recovered from).
func (w *World) abort(origin int, reason error) {
	ae := transport.ToAbortError(origin, reason)
	w.mu.Lock()
	defer w.mu.Unlock()
	st := *w.state.Load()
	if chanDebug {
		fmt.Printf("CHAN abort origin %d failed %v (poisoned=%v epoch=%d): %v\n", origin, ae.Failed, st.poison != nil, st.epoch, reason)
	}
	if st.poison != nil {
		st.poison = st.poison.Merged(ae.Failed)
		st.lastPoison = st.poison
		w.state.Store(&st)
		return
	}
	if st.epoch > 0 && transport.SubsetOf(ae.Failed, st.dead) {
		return
	}
	st.poison = ae
	st.lastPoison = ae
	// Publish before waking: a blocked operation woken by the close must
	// find the poison when it re-reads the state.
	w.state.Store(&st)
	close(st.abortCh)
}

// staleErr builds the error for an endpoint whose acknowledged epoch
// predates the world's.
func (st *worldState) staleErr(seen int) error {
	return fmt.Errorf("%w: endpoint at epoch %d, world at %d: %w", transport.ErrStaleEpoch, seen, st.epoch, st.lastPoison)
}

// Option configures a World.
type Option func(*config)

type config struct {
	buffer  int
	timeout time.Duration
}

// WithBuffer sets the per-pair channel buffer depth (default 64). A depth
// of at least one is required so that a full ring of SendRecv calls cannot
// deadlock.
func WithBuffer(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithRecvTimeout makes receives fail after d instead of blocking forever.
// Tests use it to convert collective deadlocks into errors.
func WithRecvTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// NewWorld creates a world of size ranks. A non-positive size is an
// error: library callers and cmd tools get a diagnosable failure rather
// than a crash.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("chantransport: world size %d, need at least 1", size)
	}
	cfg := config{buffer: 64}
	for _, o := range opts {
		o(&cfg)
	}
	w := &World{size: size, timeout: cfg.timeout}
	w.state.Store(&worldState{abortCh: make(chan struct{})})
	w.queue = make([][]chan message, size)
	for s := range w.queue {
		w.queue[s] = make([]chan message, size)
		for d := range w.queue[s] {
			w.queue[s][d] = make(chan message, cfg.buffer)
		}
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Endpoint returns the endpoint for the given rank, or an error when the
// rank lies outside the world. Each rank's endpoint must be used by a
// single goroutine at a time, matching the SPMD model.
func (w *World) Endpoint(rank int) (*Endpoint, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("%w: rank %d outside world of %d", transport.ErrRank, rank, w.size)
	}
	return &Endpoint{world: w, rank: rank}, nil
}

// Run spawns one goroutine per rank executing fn and waits for all of them.
// It returns the first non-nil error by rank order, which is how SPMD test
// drivers surface a failure on any node.
func (w *World) Run(fn func(ep *Endpoint) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// A panic in one rank's program must surface as that rank's
			// error, not kill the host process and every other rank with it.
			defer func() {
				if v := recover(); v != nil {
					errs[r] = fmt.Errorf("panic: %v", v)
				}
			}()
			ep, err := w.Endpoint(r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(ep)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Endpoint is one rank's handle on a World. It implements transport.Endpoint.
type Endpoint struct {
	world  *World
	rank   int
	closed atomic.Bool
	seen   atomic.Int64 // last epoch this endpoint acknowledged via Reset

	// The channel per pair is a strict FIFO, so a receive that pops a
	// message of the other class (recovery traffic during a collective, or
	// a faster peer's next-epoch collective during recovery) must set it
	// aside rather than destroy it: a lost agreement message strands the
	// whole protocol in mutual timeouts, and a lost first message of the
	// new epoch gets a live peer blamed. The stashes hold such messages,
	// keyed by sender, until a receive of the right class drains them.
	stashMu   sync.Mutex
	stashRec  map[int][]message // live recovery messages popped by ordinary receives
	stashNorm map[int][]message // next-epoch messages popped by recovery receives
}

var (
	_ transport.Endpoint  = (*Endpoint)(nil)
	_ transport.Aborter   = (*Endpoint)(nil)
	_ transport.Recoverer = (*Endpoint)(nil)
)

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.world.size }

// Abort poisons the whole world with this rank as origin: every pending
// and future operation on every rank returns an error wrapping
// transport.ErrAborted promptly. Within one process the broadcast is
// immediate — the shared abort channel is the dedicated control path. If
// reason already carries a transport.AbortError its origin and failed set
// are preserved, so dying ranks can name themselves and restart-aborts
// raised during agreement carry the merged suspect set.
func (e *Endpoint) Abort(reason error) { e.world.abort(e.rank, reason) }

// AbortErr returns the world's poisoning error, the stale-epoch error if
// the world recovered past this endpoint, or nil.
func (e *Endpoint) AbortErr() error {
	st := e.world.state.Load()
	if st.poison != nil {
		return st.poison
	}
	if seen := int(e.seen.Load()); seen < st.epoch {
		return st.staleErr(seen)
	}
	return nil
}

// Reset acknowledges the current poison generation, marks the given world
// ranks dead, and moves this endpoint into the world's next epoch. The
// first survivor to Reset clears the shared poison and bumps the world
// epoch; the others catch up when they call Reset themselves. With the
// world healthy, Reset only records the failed set.
func (e *Endpoint) Reset(failed []int) {
	w := e.world
	w.mu.Lock()
	st := *w.state.Load()
	st.dead = transport.MergeFailed(st.dead, failed)
	if st.poison != nil {
		st.poison = nil
		st.epoch++
		st.abortCh = make(chan struct{})
	}
	if chanDebug {
		fmt.Printf("CHAN reset rank %d -> epoch %d (failed %v)\n", e.rank, st.epoch, failed)
	}
	// Acknowledge before publishing: gate reads the state, then seen, so
	// it never pairs the new epoch with this endpoint's old one.
	e.seen.Store(int64(st.epoch))
	w.state.Store(&st)
	w.mu.Unlock()
	// Any recovery message still stashed belongs to a round at or before
	// the one this Reset closes: stale by nonce, never to be drained by a
	// later round's receives (which only target the current coordinator).
	e.stashMu.Lock()
	e.stashRec = nil
	e.stashMu.Unlock()
}

// stashAdd sets aside a message popped by a receive of the other class.
func (e *Endpoint) stashAdd(from int, m message, recovery bool) {
	e.stashMu.Lock()
	defer e.stashMu.Unlock()
	if recovery {
		if e.stashRec == nil {
			e.stashRec = make(map[int][]message)
		}
		e.stashRec[from] = append(e.stashRec[from], m)
		return
	}
	if e.stashNorm == nil {
		e.stashNorm = make(map[int][]message)
	}
	e.stashNorm[from] = append(e.stashNorm[from], m)
}

// unstash returns the next stashed message from the given sender usable by
// a receive of the given class, discarding stashed debris it scans past:
// recovery receives drop stashed recovery messages of other phases (stale
// attempts), ordinary receives drop stashed messages from before their
// epoch. Messages from a future epoch stay stashed; the gate reports the
// staleness before they could matter.
func (e *Endpoint) unstash(from int, rec bool, tag transport.Tag, epoch int) (message, bool) {
	e.stashMu.Lock()
	defer e.stashMu.Unlock()
	stash := e.stashNorm
	if rec {
		stash = e.stashRec
	}
	if stash == nil {
		return message{}, false
	}
	q := stash[from]
	for len(q) > 0 {
		m := q[0]
		if !rec && m.epoch > epoch {
			break // future epoch: unreachable until Reset catches us up
		}
		q = q[1:]
		if rec && m.tag != tag {
			continue // stale attempt debris in the recovery tag space
		}
		if !rec && m.epoch < epoch {
			continue // remnant of an epoch this endpoint has moved past
		}
		stash[from] = q
		return m, true
	}
	stash[from] = q
	return message{}, false
}

// Failed returns the sorted set of world ranks agreed dead.
func (e *Endpoint) Failed() []int {
	return append([]int(nil), e.world.state.Load().dead...)
}

// Epoch returns the world's current epoch.
func (e *Endpoint) Epoch() int { return e.world.state.Load().epoch }

// gate checks whether an operation with the given peer may proceed. On
// success it returns the current abort channel (for wakeup) and the
// epoch stamp outgoing messages must carry. Recovery-tagged operations
// run through the poison — the agreement protocol is exactly the traffic
// that must flow while the world is down — so for them the poison and
// staleness checks are skipped and no abort wakeup is armed (a nil
// channel blocks in select).
func (e *Endpoint) gate(peer int, rec bool) (ch chan struct{}, epoch int, err error) {
	st := e.world.state.Load()
	seen := int(e.seen.Load())
	if !rec {
		if st.poison != nil {
			return nil, 0, st.poison
		}
		if seen < st.epoch {
			return nil, 0, st.staleErr(seen)
		}
	}
	if i := searchInts(st.dead, peer); i >= 0 {
		return nil, 0, &transport.PeerError{Peer: peer,
			Err: fmt.Errorf("%w: rank %d is dead (rank %d)", transport.ErrPeerFailed, peer, e.rank)}
	}
	if rec {
		return nil, seen, nil
	}
	return st.abortCh, seen, nil
}

func searchInts(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sorted) && sorted[lo] == x {
		return lo
	}
	return -1
}

// Send copies p and enqueues it for rank to. It blocks only if the pair's
// channel buffer is full.
func (e *Endpoint) Send(to int, tag transport.Tag, p []byte) error {
	if err := e.check(to); err != nil {
		return err
	}
	_, err := e.send(to, newMessage(tag, p), true)
	return err
}

// check rejects operations on a closed endpoint or with an invalid peer.
func (e *Endpoint) check(peer int) error {
	if e.closed.Load() {
		return transport.ErrClosed
	}
	return transport.CheckPeer(e.rank, e.world.size, peer)
}

// send stamps m with the sender's epoch and enqueues it for rank to. When
// the pair queue is full it blocks until there is room if wait is set;
// otherwise it returns done false and leaves m to the caller. m is freed
// when send fails.
func (e *Endpoint) send(to int, m message, wait bool) (done bool, err error) {
	q := e.world.queue[e.rank][to]
	rec := m.tag.IsRecovery()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			transport.StopTimer(timer)
		}
		if err != nil {
			m.free()
		}
	}()
	for {
		abortCh, epoch, gerr := e.gate(to, rec)
		if gerr != nil {
			return true, gerr
		}
		m.epoch = epoch
		select {
		case q <- m:
			return true, nil
		default:
		}
		if !wait {
			return false, nil
		}
		var timeoutCh <-chan time.Time
		if rec && e.world.timeout > 0 {
			// A recovery send has no abort wakeup (it must run through the
			// poison), so a full queue to a rank that stopped draining —
			// typically because it is dead — would block forever. Bound it
			// like a receive and blame the peer.
			if timer == nil {
				timer = transport.StartTimer(e.world.timeout)
			}
			timeoutCh = timer.C
		}
		select {
		case q <- m:
			return true, nil
		case <-abortCh:
			// Poisoned (or recovered past us) while blocked: loop to pick
			// up the gate's verdict.
		case <-timeoutCh:
			timer = nil // fired, so not reusable
			return true, &transport.PeerError{Peer: to,
				Err: fmt.Errorf("chantransport: rank %d: send to %d tag %#x: %w after %v (peer not draining)",
					e.rank, to, m.tag, transport.ErrTimeout, e.world.timeout)}
		}
	}
}

// Recv dequeues the next message from rank from, verifies its tag and
// length, and copies it into p. Messages stamped with an epoch older than
// the endpoint's are remnants of a collective cut down by an abort and are
// silently discarded. A message of the other class — recovery traffic
// popped by an ordinary receive, or a faster peer's next-epoch collective
// popped by a recovery receive — is stashed for the receive that can use
// it, never destroyed (see Endpoint).
//
// A receive takes a stashed message first, then one already queued; only
// when it must wait does it arm the receive timeout, with a timer from a
// pool of stopped timers. The message's payload buffer goes back to its
// pool once copied into p.
func (e *Endpoint) Recv(from int, tag transport.Tag, p []byte) (int, error) {
	if err := e.check(from); err != nil {
		return 0, err
	}
	ch := e.world.queue[from][e.rank]
	rec := tag.IsRecovery()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			transport.StopTimer(timer)
		}
	}()
	for {
		abortCh, epoch, err := e.gate(from, rec)
		if err != nil {
			return 0, err
		}
		m, ok := e.unstash(from, rec, tag, epoch)
		if !ok {
			select {
			case m = <-ch:
			default:
				var timeoutCh <-chan time.Time
				if e.world.timeout > 0 {
					if timer == nil {
						timer = transport.StartTimer(e.world.timeout)
					}
					timeoutCh = timer.C
				}
				select {
				case m = <-ch:
				case <-abortCh:
					continue
				case <-timeoutCh:
					timer = nil // fired, so not reusable
					if !rec {
						// If the poison landed in the same instant the
						// timer fired, the select may pick the timer; the
						// poison explains the silence, so report it rather
						// than blame a live peer for an abort it did not
						// cause.
						if ae := e.world.state.Load().poison; ae != nil {
							return 0, ae
						}
					}
					return 0, &transport.PeerError{Peer: from,
						Err: fmt.Errorf("chantransport: rank %d: receive from %d tag %#x: %w after %v (likely collective deadlock)",
							e.rank, from, tag, transport.ErrTimeout, e.world.timeout)}
				}
			}
		}
		if rec {
			if !m.tag.IsRecovery() {
				if m.epoch > epoch {
					// A peer that already committed the new epoch started
					// its next collective; hold the message for this rank's
					// own post-Reset receive.
					e.stashAdd(from, m, false)
				} else {
					m.free() // debris of a collective cut down by the abort
				}
				continue
			}
			if m.tag != tag {
				m.free() // stale message of an earlier recovery attempt
				continue
			}
		} else {
			if m.tag.IsRecovery() {
				if m.epoch < epoch {
					m.free() // debris of a recovery round already committed
					continue
				}
				// A live agreement message: its sender is recovering and
				// will never resend it, so destroying it would strand the
				// protocol in mutual timeouts. Stash it for this rank's own
				// Agree and fail the collective receive; the mismatch
				// poisons the world blaming nobody, pushing this rank into
				// the same recovery.
				e.stashAdd(from, m, true)
				return 0, fmt.Errorf("%w: rank %d expected tag %#x from %d, got recovery message %#x",
					transport.ErrTagMismatch, e.rank, tag, from, m.tag)
			}
			if m.epoch < epoch {
				m.free() // stale traffic from before the last recovery
				continue
			}
			if m.epoch > epoch {
				// The sender is an epoch ahead: this endpoint is stale and
				// the gate says so on the next pass; the message may still
				// be valid after this rank's own Reset.
				e.stashAdd(from, m, false)
				continue
			}
			if m.tag != tag {
				m.free()
				return 0, fmt.Errorf("%w: rank %d expected tag %#x from %d, got %#x",
					transport.ErrTagMismatch, e.rank, tag, from, m.tag)
			}
		}
		data := m.payload()
		if len(data) > len(p) {
			m.free()
			return 0, fmt.Errorf("%w: rank %d from %d: message %d bytes, buffer %d",
				transport.ErrTruncate, e.rank, from, len(data), len(p))
		}
		n := copy(p, data)
		m.free()
		return n, nil
	}
}

// SendRecv sends sp to rank to and receives from rank from into rp. The
// send is enqueued inline when the pair queue has room, which is the
// common case; otherwise it runs in a separate goroutine while the
// receive proceeds inline, so a full ring of simultaneous exchanges cannot
// deadlock regardless of buffer depth.
func (e *Endpoint) SendRecv(to int, stag transport.Tag, sp []byte, from int, rtag transport.Tag, rp []byte) (int, error) {
	var sendErr chan error
	serr := e.check(to)
	if serr == nil {
		m := newMessage(stag, sp)
		var done bool
		if done, serr = e.send(to, m, false); !done {
			sendErr = make(chan error, 1)
			go func() {
				_, err := e.send(to, m, true)
				sendErr <- err
			}()
		}
	}
	n, rerr := e.Recv(from, rtag, rp)
	if sendErr != nil {
		serr = <-sendErr
	}
	if rerr != nil {
		return n, rerr
	}
	return n, serr
}

// Close marks the endpoint closed. Messages already queued to other ranks
// remain deliverable.
func (e *Endpoint) Close() error {
	e.closed.Store(true)
	return nil
}

var chanDebug = os.Getenv("ICC_REC_DEBUG") != ""
