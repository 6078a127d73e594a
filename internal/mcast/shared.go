package mcast

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skyscraper/internal/metrics"
)

// Classifier maps a raw datagram to its broadcast group without decoding
// the payload. ok=false marks the datagram unroutable (garbage, foreign
// traffic); it is counted and dropped. Only the subscription adapter
// (Subscribe) classifies; a receiver with a Handler leaves routing to it.
type Classifier func(frame []byte) (Group, bool)

// Handler consumes one read's datagrams on the receiver's read loop, in
// the order they arrived, and returns the next instant it wants to run
// (zero for none). Once that instant passes, or Wake is called, the loop
// first hands it every datagram the socket already holds, then calls it
// with no frames. The frames alias the receiver's landing zone: they are
// valid only until the handler returns, and it must not write them.
type Handler func(frames [][]byte) time.Time

// maxDatagram bounds one read from the shared socket: the largest UDP
// payload loopback can carry.
const maxDatagram = 64 << 10

// recvBatch is the most datagrams one recvmmsg call may drain — the
// ingress mirror of sendmmsgBatch, and for the same reason: large enough
// that the syscall cost amortizes to noise. The batched reader's landing
// zone holds one maxDatagram span per batch entry, 4 MiB of address space
// mapped outside the Go heap (recv_linux.go): only the pages datagrams
// actually land on cost RSS, and the GC neither counts nor paces against
// any of it.
const recvBatch = 64

// Read-error backoff: a persistent (non-closed) receive error used to
// spin the read loop hot. After readErrStreak consecutive failures the
// loop sleeps, doubling from readErrBackoffStart up to readErrBackoffCap,
// so a wedged socket costs ~10 wakeups/s instead of a pegged core. Any
// successful read resets the streak.
const (
	readErrStreak       = 8
	readErrBackoffStart = time.Millisecond
	readErrBackoffCap   = 100 * time.Millisecond
)

// SharedReceiverConfig configures NewSharedReceiverConfigured.
type SharedReceiverConfig struct {
	// RecvBufBytes is the kernel receive buffer (SetReadBuffer); zero or
	// negative selects DefaultRecvBufBytes.
	RecvBufBytes int
	// Handle, when set, receives every read's datagrams (see Handler), and
	// Subscribe is refused. When nil, Classify is required and the
	// receiver copies each datagram to the subscriptions of its group.
	Handle Handler
	// Classify routes datagrams to subscriptions.
	Classify Classifier
	// Logf receives the one-line notices of the ingress ladder (probe
	// failures, kill-switches, runtime demotions); nil discards them.
	Logf func(format string, args ...any)
}

// SharedReceiver is the fan-in complement of Hub's fan-out: one UDP
// socket whose datagrams are handed, a read at a time, to one Handler —
// the cohort multiplexer's router holds one instead of a socket per
// viewer, so kernel-side cost scales with cohorts, not audience size.
//
// The read side is a two-rung ladder mirroring the hub's egress: a
// recvmmsg rung drains up to recvBatch datagrams per syscall into a
// landing zone mapped outside the Go heap (recv_linux.go), and a UDP
// GRO rung on top receives the hub's GSO super-frames as one coalesced
// buffer, split back into wire-sized frames in userspace. Without the
// rungs (platform, kill-switch) it reads one datagram per syscall —
// behavior-identical, just slower. The handler sees each read's frames
// in wire order, straight off the landing zone.
//
// Without a Handler the receiver runs the subscription adapter
// (Subscribe/Ready/Frame/Release), a copy ring per subscription kept
// for the benchmark harness's layer probe and this package's tests.
type SharedReceiver struct {
	conn     *net.UDPConn
	handle   Handler
	classify Classifier
	logf     func(format string, args ...any)

	// The ingress-ladder state: the raw socket handle the batched reader
	// drives, the reusable syscall/buffer state, and the rung switches,
	// set at creation where the probes passed and cleared for good by a
	// runtime demotion.
	rc     syscall.RawConn
	rb     *recvBuf
	mmsgOn atomic.Bool
	groOn  atomic.Bool

	// errStreak counts consecutive read failures; buf and one are the
	// portable rung's buffer (made on its first read) and one-frame batch.
	// All three are owned by the run goroutine. woken is a pending Wake.
	errStreak int
	buf       []byte
	one       [1][]byte
	woken     atomic.Bool

	// mu serializes the writers (Subscribe, Unsubscribe, Close); the
	// adapter's fan-out reads subs without it.
	mu     sync.Mutex
	subs   groupLists[*Subscription]
	closed atomic.Bool
	done   chan struct{}

	// The ledger Stats reports as ReceiverStats, field for field.
	delivered    metrics.PaddedCounter
	dropped      metrics.PaddedCounter
	unroutable   metrics.PaddedCounter
	batchedReads metrics.PaddedCounter
	readSyscalls metrics.PaddedCounter
	groSegments  metrics.PaddedCounter
	groFallbacks metrics.PaddedCounter
	readErrors   metrics.PaddedCounter
}

// Subscription is one consumer's tap on a group under the subscription
// adapter: a ring of depth slots the read loop copies the group's
// datagrams into, handed over by index on Ready (closed when the
// receiver shuts down). A frame is stable until its Release, and slots go
// back in the order they came. At most depth slots may be outstanding;
// datagrams beyond that quota, or larger than a slot, are dropped
// (Dropped), so a stalled consumer costs only its own frames.
type Subscription struct {
	g         Group
	s         *SharedReceiver
	slotBytes int
	ring      []byte
	lens      []int
	next      int // the slot the read loop fills next
	ready     chan int
	// out counts slots queued on this subscription and not yet released.
	out     atomic.Int64
	dropped atomic.Int64
}

// NewSharedReceiver opens the shared socket with the given kernel receive
// buffer (zero or negative selects DefaultRecvBufBytes) and classifier,
// and starts the read loop with the default ingress batch. Close stops
// it.
func NewSharedReceiver(rcvBuf int, classify Classifier) (*SharedReceiver, error) {
	return NewSharedReceiverConfigured(SharedReceiverConfig{
		RecvBufBytes: rcvBuf,
		Classify:     classify,
	})
}

// NewSharedReceiverConfigured opens the shared socket, arms whatever
// ingress rungs the platform and kernel support (recvmmsg, then UDP GRO
// on top of it), and starts the read loop. Close stops it.
func NewSharedReceiverConfigured(cfg SharedReceiverConfig) (*SharedReceiver, error) {
	if cfg.Handle == nil && cfg.Classify == nil {
		return nil, fmt.Errorf("mcast: shared receiver needs a handler or a classifier")
	}
	r, err := NewReceiverSized(cfg.RecvBufBytes)
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &SharedReceiver{
		conn:     r.Conn,
		handle:   cfg.Handle,
		classify: cfg.Classify,
		logf:     logf,
		done:     make(chan struct{}),
	}
	if s.handle == nil {
		s.handle = s.fanOut
	}
	s.subs.init()
	s.initRecv()
	go s.run()
	return s, nil
}

// Addr returns the shared socket's UDP address — the one every group is
// joined with.
func (s *SharedReceiver) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Subscribe taps group g with a ring of depth slots of slotBytes each.
// Datagrams larger than slotBytes are dropped for this subscription
// (counted), so size slots for the largest frame the group carries. A
// receiver built with a Handler has no subscriptions.
func (s *SharedReceiver) Subscribe(g Group, depth, slotBytes int) (*Subscription, error) {
	if depth <= 0 || slotBytes <= 0 {
		return nil, fmt.Errorf("mcast: subscription needs positive depth and slot size (got %d, %d)", depth, slotBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, fmt.Errorf("mcast: shared receiver closed")
	}
	if s.classify == nil {
		return nil, fmt.Errorf("mcast: shared receiver routes through its handler")
	}
	sub := &Subscription{
		g:         g,
		s:         s,
		slotBytes: slotBytes,
		ring:      make([]byte, depth*slotBytes),
		lens:      make([]int, depth),
		// Sized to the quota, so handing over a filled slot never blocks.
		ready: make(chan int, depth),
	}
	s.subs.store(g, append(slices.Clip(s.subs.load().list(g)), sub))
	return sub, nil
}

// Unsubscribe detaches sub. A delivery routed under a snapshot loaded
// before the detach may still land after return; the consumer simply
// stops draining Ready.
func (s *SharedReceiver) Unsubscribe(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.subs.load().list(sub.g)
	if idx := slices.Index(list, sub); idx >= 0 {
		s.subs.store(sub.g, slices.Delete(slices.Clone(list), idx, idx+1))
	}
}

// run is the read loop: one read (a single datagram or a whole recvmmsg
// batch, per the live rung) in, one handler call out, each read waiting
// at most until the instant the handler last asked for. When that
// instant passes or Wake is called, the loop hands the handler what the
// socket holds, then calls it with no frames. On exit it closes the
// Ready channel of every subscription still attached.
func (s *SharedReceiver) run() {
	defer close(s.done)
	var next, armed time.Time // the instant asked for; the socket's deadline
	for {
		if s.woken.Swap(false) || !next.IsZero() && !time.Now().Before(next) {
			s.drain()
			next = s.handle(nil)
			continue
		}
		if !next.Equal(armed) {
			_ = s.conn.SetReadDeadline(next)
			armed = next
		}
		// A Wake whose deadline landed before this one replaced it: its
		// flag, raised first, is still up.
		if s.woken.Load() {
			continue
		}
		frames, ok := s.read(true)
		if !ok {
			break
		}
		if len(frames) == 0 {
			armed = wakeDeadline // what a Wake leaves on the socket
			continue
		}
		next = s.handle(frames)
	}
	s.freeRecv()
	// Wake every consumer: snapshot under mu so a racing Subscribe (which
	// fails after closed is set) cannot add an unclosed channel.
	s.mu.Lock()
	subs := s.subs.load()
	for g := range subs {
		for _, sub := range subs.list(g) {
			close(sub.ready)
		}
	}
	s.mu.Unlock()
}

// drainReads bounds one drain: many times what a receive buffer holds, so
// a loop back from a pause reads the whole backlog first, while a socket
// that fills as fast as it is read still lets the handler's instants run.
const drainReads = 4096

// drain hands the handler, without waiting, what the socket holds: up to
// a recvmmsg batch that comes back short, which emptied it.
func (s *SharedReceiver) drain() {
	for range drainReads {
		frames, _ := s.read(false)
		if len(frames) == 0 {
			return
		}
		s.handle(frames)
		if s.mmsgOn.Load() && len(frames) < recvBatch {
			return
		}
	}
}

// Wake makes the read loop call the handler with no frames as soon as it
// can, after handing it what the socket holds: the way another goroutine
// gives the loop work. It never blocks, and a Wake racing the loop's
// next deadline is not lost: it raises the flag before it cuts the
// deadline, and the loop reads the flag after setting it.
func (s *SharedReceiver) Wake() {
	s.woken.Store(true)
	_ = s.conn.SetReadDeadline(wakeDeadline)
}

// wakeDeadline is the read deadline Wake sets: one that has always passed.
var wakeDeadline = time.Unix(1, 0)

// read reads once on the live rung and returns its frames, waiting for
// them until the deadline or a Wake, or with wait false taking only what
// the socket already holds. No frames means a passed deadline, a Wake,
// an empty socket or a failed read; false that the receiver is closed.
func (s *SharedReceiver) read(wait bool) ([][]byte, bool) {
	if s.mmsgOn.Load() {
		return s.readBatched(wait)
	}
	if s.buf == nil {
		s.buf = make([]byte, maxDatagram)
	}
	if !wait {
		return s.readNow()
	}
	n, _, err := s.conn.ReadFromUDPAddrPort(s.buf)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil, true // no kernel crossing was made
	}
	s.readSyscalls.Inc()
	if err != nil {
		return nil, s.noteReadError(err)
	}
	s.errStreak = 0
	s.one[0] = s.buf[:n]
	return s.one[:], true
}

// noteReadError is the shared failure tail of both read rungs: it ends
// the loop on close, passes a deadline (the handler's instant, or a
// Wake) as no error at all, and otherwise counts the error and backs off
// once a streak shows the failure is persistent — a wedged socket (e.g.
// a firewall rejecting with ICMP faster than we drain errors) must not
// spin a core.
func (s *SharedReceiver) noteReadError(err error) bool {
	if s.closed.Load() {
		return false
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	s.readErrors.Inc()
	s.errStreak++
	if over := s.errStreak - readErrStreak; over >= 0 {
		if over > 6 {
			over = 6 // 1ms << 6 = 64ms, the last doubling under the cap
		}
		d := readErrBackoffStart << over
		if d > readErrBackoffCap {
			d = readErrBackoffCap
		}
		time.Sleep(d)
	}
	return true
}

// fanOut is the subscription adapter's Handler: each frame is classified
// and copied into the ring of every subscription of its group, under one
// snapshot load per read. It allocates nothing and asks for no wake.
func (s *SharedReceiver) fanOut(frames [][]byte) time.Time {
	subs := s.subs.load()
	for _, frame := range frames {
		g, ok := s.classify(frame)
		if !ok {
			s.unroutable.Inc()
			continue
		}
		for _, sub := range subs.list(g) {
			sub.deliver(frame)
		}
	}
	return time.Time{}
}

// deliver copies frame into sub's next slot and hands the slot over, or
// drops it when it does not fit or the quota is spent.
func (sub *Subscription) deliver(frame []byte) {
	depth := len(sub.lens)
	// Only this goroutine raises out, so a quota seen open stays open.
	if len(frame) > sub.slotBytes || sub.out.Load() >= int64(depth) {
		sub.dropped.Add(1)
		sub.s.dropped.Inc()
		return
	}
	sub.out.Add(1)
	slot := sub.next
	sub.next = (slot + 1) % depth
	sub.lens[slot] = copy(sub.ring[slot*sub.slotBytes:], frame)
	sub.s.delivered.Inc() // before the handoff: a consumer that has the slot sees it counted
	sub.ready <- slot     // never blocks: at most depth slots are outstanding
}

// Ready delivers filled slot indices; it is closed when the shared
// receiver shuts down.
func (sub *Subscription) Ready() <-chan int { return sub.ready }

// Frame returns slot's datagram bytes, valid until Release.
func (sub *Subscription) Frame(slot int) []byte {
	off := slot * sub.slotBytes
	return sub.ring[off : off+sub.lens[slot]]
}

// Release hands slot back to the ring; slots go back in the order Ready
// delivered them.
func (sub *Subscription) Release(int) { sub.out.Add(-1) }

// Dropped returns how many datagrams this subscription lost to a spent
// quota or an undersized slot.
func (sub *Subscription) Dropped() int64 { return sub.dropped.Load() }

// ReceiverStats is a shared receiver's ledger at one instant.
type ReceiverStats struct {
	// The subscription adapter's ledger (zero under a Handler):
	// Delivered counts deliveries, one per (datagram, subscription);
	// Dropped the datagrams lost to a spent quota or an undersized slot;
	// Unroutable those the classifier rejected.
	Delivered  int64 `json:"delivered"`
	Dropped    int64 `json:"dropped"`
	Unroutable int64 `json:"unroutable"`
	// The ingress ledger: BatchedReads counts datagrams delivered through
	// the recvmmsg rung (after GRO splitting) and ReadSyscalls every kernel
	// receive invocation on either rung, so BatchedReads/ReadSyscalls is
	// the batching factor; GROSegments counts frames recovered from
	// coalesced super-frames, GROFallbacks declines and demotions of the
	// GRO rung, ReadErrors failed (and backoff-throttled) socket reads.
	BatchedReads int64 `json:"batchedReads"`
	ReadSyscalls int64 `json:"readSyscalls"`
	GROSegments  int64 `json:"groSegments"`
	GROFallbacks int64 `json:"groFallbacks"`
	ReadErrors   int64 `json:"readErrors"`
}

// Stats returns the receiver's ledger.
func (s *SharedReceiver) Stats() ReceiverStats {
	return ReceiverStats{
		Delivered:    s.delivered.Value(),
		Dropped:      s.dropped.Value(),
		Unroutable:   s.unroutable.Value(),
		BatchedReads: s.batchedReads.Value(),
		ReadSyscalls: s.readSyscalls.Value(),
		GROSegments:  s.groSegments.Value(),
		GROFallbacks: s.groFallbacks.Value(),
		ReadErrors:   s.readErrors.Value(),
	}
}

// RecvBatched reports whether the recvmmsg rung is live; GRO whether the
// coalesced-receive rung on top of it is.
func (s *SharedReceiver) RecvBatched() bool { return s.mmsgOn.Load() }
func (s *SharedReceiver) GRO() bool         { return s.groOn.Load() }

// Close shuts the socket and stops the read loop; every subscription's
// Ready channel is closed before Close returns.
func (s *SharedReceiver) Close() error {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return nil
	}
	err := s.conn.Close()
	s.mu.Unlock()
	<-s.done
	return err
}
