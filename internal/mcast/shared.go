package mcast

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skyscraper/internal/metrics"
)

// Classifier maps a raw datagram to its broadcast group without decoding
// the payload. ok=false marks the datagram unroutable (garbage, foreign
// traffic); it is counted and dropped. The virtual-viewer multiplexer
// passes a wire.PeekID-based classifier, keeping this package free of any
// framing knowledge.
type Classifier func(frame []byte) (Group, bool)

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
	// Classify routes datagrams to groups; required.
	Classify Classifier
	// Logf receives the one-line notices of the ingress ladder (probe
	// failures, kill-switches, runtime demotions); nil discards them.
	Logf func(format string, args ...any)
}

// SharedReceiver is the fan-in complement of Hub's fan-out: one UDP
// socket whose datagrams are routed to per-group subscriptions. A cohort
// multiplexer emulating thousands of viewers holds one SharedReceiver and
// one subscription per tuned channel instead of one socket per viewer, so
// kernel-side cost scales with cohorts, not audience size.
//
// The read side is a two-rung ladder mirroring the hub's egress: a
// recvmmsg rung drains up to recvBatch datagrams per syscall into a
// landing zone mapped outside the Go heap (recv_linux.go), and a UDP
// GRO rung on top receives the hub's GSO super-frames as one
// coalesced buffer that is split back into wire-sized frames in
// userspace. Platforms (or kill-switches) without the rungs read one
// datagram per syscall through the portable path — behavior-identical,
// just slower.
//
// The dispatch path mirrors Send's discipline: subscriptions live in a
// copy-on-write groupLists (Subscribe and Unsubscribe replace one
// group's list under a mutex, the read loop only loads). Each datagram
// is copied ONCE per slot size into a slot of a receiver-owned
// arena (see slotArena), and that one slot is queued on every
// subscription of the group that had quota for it, with a reference
// count the last Release drops; slot handoff rides buffered int
// channels. So a steady-state delivery allocates nothing, and buffer
// memory follows the datagrams in flight — not the subscriptions open,
// and not how many of them hear each datagram. A batched read classifies
// and routes the whole batch under one snapshot load. Delivery is
// best-effort, as multicast is: a subscriber that stops draining loses
// its own datagrams (its quota counts the shared slots it pins), never
// its neighbors'.
type SharedReceiver struct {
	conn     *net.UDPConn
	classify Classifier
	logf     func(format string, args ...any)

	// The ingress-ladder state: the raw socket handle the batched reader
	// drives, the reusable syscall/buffer state, and the rung switches.
	// mmsgCapable/groCapable record what the creation-time probes proved;
	// mmsgOn/groOn are the live switches (runtime demotion, test hooks).
	rc          syscall.RawConn
	rb          *recvBuf
	mmsgOn      atomic.Bool
	groOn       atomic.Bool
	mmsgCapable bool
	groCapable  bool

	// errStreak counts consecutive read failures; owned by the run
	// goroutine.
	errStreak int

	// mu serializes the writers (Subscribe, Unsubscribe, Close); the read
	// loop takes it only to collect retired subscriptions, and only when
	// retiring says there are some.
	mu     sync.Mutex
	subs   groupLists[*Subscription]
	closed atomic.Bool
	done   chan struct{}

	// arenas holds one slot arena per slot size (guarded by mu; each
	// subscription keeps a pointer to its own). retired lists unsubscribed
	// subscriptions whose queues the read loop has yet to drain. slots is
	// the number of arena slots filled and not yet released by their last
	// holder. taken is the read loop's scratch list of the subscriptions
	// that accepted the datagram being fanned out.
	arenas   map[int]*slotArena
	retired  []*Subscription
	retiring atomic.Bool
	slots    metrics.PaddedGauge
	taken    []*Subscription

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

// arenaPageSlots is how many slots the arena adds per growth step: small
// enough that a lightly loaded receiver holds a few dozen KiB, large
// enough that growing to a burst's depth takes a handful of steps.
const arenaPageSlots = 32

// slotArena is the receiver's frame memory for one slot size, shared by
// every subscription of that size. A slot holds one datagram however
// many subscriptions it was queued on; its reference count says how many
// have yet to Release it, and the last one returns it. Slots are handed
// out from a LIFO free stack, so the slot a consumer just released —
// still in cache — is the next one filled, and only as many pages as the
// peak number of datagrams in flight are ever touched: memory follows
// live traffic, not how many channels were ever tuned nor how many
// subscriptions hear each one. The arena grows a page at a time when the
// stack runs dry and never shrinks.
type slotArena struct {
	slotBytes int
	// pages is the copy-on-grow page table; Frame loads it without the
	// lock. Slot i lives in page i/arenaPageSlots.
	pages atomic.Pointer[[]*arenaPage]

	mu   sync.Mutex
	free []int // LIFO; capacity always covers every slot, so put never allocates
}

type arenaPage struct {
	buf  []byte
	lens [arenaPageSlots]int          // frame length per slot
	refs [arenaPageSlots]atomic.Int32 // holders yet to Release each slot
}

// get pops a free slot, growing the arena by one page when none is left.
func (a *slotArena) get() int {
	a.mu.Lock()
	if len(a.free) == 0 {
		a.grow()
	}
	slot := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.mu.Unlock()
	return slot
}

// put returns slot to the top of the free stack.
func (a *slotArena) put(slot int) {
	a.mu.Lock()
	a.free = append(a.free, slot)
	a.mu.Unlock()
}

// grow adds one page (mu held, free stack empty). Pages already handed
// out stay where they are: only the table is copied.
func (a *slotArena) grow() {
	var old []*arenaPage
	if p := a.pages.Load(); p != nil {
		old = *p
	}
	pages := append(old[:len(old):len(old)], &arenaPage{buf: make([]byte, arenaPageSlots*a.slotBytes)})
	a.pages.Store(&pages)
	a.free = make([]int, 0, len(pages)*arenaPageSlots)
	for i := len(pages)*arenaPageSlots - 1; i >= len(old)*arenaPageSlots; i-- {
		a.free = append(a.free, i)
	}
}

// locate returns slot's page and its index within the page.
func (a *slotArena) locate(slot int) (*arenaPage, int) {
	return (*a.pages.Load())[slot/arenaPageSlots], slot % arenaPageSlots
}

// Subscription is one consumer's tap on a group: a queue of filled arena
// slots, fed by the receiver's read loop. The consumer loop is
//
//	for slot := range sub.Ready() {
//	    frame := sub.Frame(slot)
//	    ... decode, dispatch ...
//	    sub.Release(slot)
//	}
//
// Ready is closed when the SharedReceiver shuts down. The same slot may
// be queued on every subscription of the group, so a frame is shared and
// read-only: consumers must not write to it, and it is stable until this
// subscription's Release. A subscription may have at most depth slots
// outstanding (queued or held), and datagrams arriving beyond that quota
// are dropped (counted in Dropped) — so a stalled consumer costs only
// its own frames.
type Subscription struct {
	g     Group
	s     *SharedReceiver
	arena *slotArena
	depth int64
	ready chan int
	// out counts slots queued on this subscription and not yet released
	// by it.
	out atomic.Int64

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
	if cfg.Classify == nil {
		return nil, fmt.Errorf("mcast: shared receiver needs a classifier")
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
		classify: cfg.Classify,
		logf:     logf,
		done:     make(chan struct{}),
		arenas:   make(map[int]*slotArena),
	}
	s.subs.init()
	s.initRecv()
	go s.run()
	return s, nil
}

// Addr returns the shared socket's UDP address — the one every
// subscription's group is joined with.
func (s *SharedReceiver) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Subscribe taps group g with a quota of depth outstanding slots of
// slotBytes each, drawn from the receiver's arena for that slot size.
// Datagrams larger than slotBytes are dropped for this subscription
// (counted), so size slots for the largest frame the group carries.
func (s *SharedReceiver) Subscribe(g Group, depth, slotBytes int) (*Subscription, error) {
	if depth <= 0 || slotBytes <= 0 {
		return nil, fmt.Errorf("mcast: subscription needs positive depth and slot size (got %d, %d)", depth, slotBytes)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, fmt.Errorf("mcast: shared receiver closed")
	}
	arena := s.arenas[slotBytes]
	if arena == nil {
		arena = &slotArena{slotBytes: slotBytes}
		s.arenas[slotBytes] = arena
	}
	sub := &Subscription{
		g:     g,
		s:     s,
		arena: arena,
		depth: int64(depth),
		// Sized to the quota, so handing over a filled slot never blocks.
		ready: make(chan int, depth),
	}
	// Insert behind the last subscription on the same arena (or at the
	// end), keeping each slot size one contiguous run: the fan-out walks
	// one run per slot size.
	list := s.subs.load().list(g)
	at := len(list)
	for i, have := range list {
		if have.arena == arena {
			at = i + 1
		}
	}
	s.subs.store(g, slices.Insert(slices.Clone(list), at, sub))
	return sub, nil
}

// Unsubscribe detaches sub and hands it to the read loop for retirement.
// A delivery routed under a snapshot loaded before the detach may still
// land after return; the consumer simply stops draining Ready. Whatever
// is left queued is released by the read loop — the only goroutine that
// fills the queue, so nothing can slip in behind its drain — on its next
// pass (or at Close). Slots the consumer still holds are its own to
// Release.
func (s *SharedReceiver) Unsubscribe(sub *Subscription) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.subs.load().list(sub.g)
	idx := slices.Index(list, sub)
	if idx < 0 {
		return
	}
	s.subs.store(sub.g, slices.Delete(slices.Clone(list), idx, idx+1))
	s.retired = append(s.retired, sub)
	s.retiring.Store(true)
}

// retire releases the queued slots of every unsubscribed subscription.
// It runs on the read loop between reads: the next dispatch loads a
// snapshot that no longer holds them, so their queues stay empty.
func (s *SharedReceiver) retire() {
	if !s.retiring.Load() {
		return
	}
	s.mu.Lock()
	list := s.retired
	s.retired = nil
	s.retiring.Store(false)
	s.mu.Unlock()
	for _, sub := range list {
		sub.drain()
	}
}

// drain releases sub's reference to every slot still queued on it,
// without ever waiting for one (the consumer may be taking them too).
func (sub *Subscription) drain() {
	for {
		select {
		case slot := <-sub.ready:
			sub.Release(slot)
		default:
			return
		}
	}
}

// run is the read loop: one read (a single datagram or a whole recvmmsg
// batch, per the live rung) in, zero or more slot deliveries out. It owns
// every ready channel and closes them all on exit.
func (s *SharedReceiver) run() {
	defer close(s.done)
	var buf []byte // the portable rung's buffer, made on its first read
	for {
		var ok bool
		if s.mmsgOn.Load() {
			ok = s.readBatched()
		} else {
			if buf == nil {
				buf = make([]byte, maxDatagram)
			}
			ok = s.readSingle(buf)
		}
		if !ok {
			break
		}
		s.retire()
	}
	s.freeRecv()
	s.retire()
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

// readSingle is the portable rung: one datagram per kernel crossing. It
// returns false only when the receiver is closed.
func (s *SharedReceiver) readSingle(buf []byte) bool {
	s.readSyscalls.Inc()
	n, _, err := s.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return s.noteReadError()
	}
	s.errStreak = 0
	s.dispatch(buf[:n])
	return true
}

// noteReadError is the shared failure tail of both read rungs: it ends
// the loop on close, and otherwise counts the error and backs off once a
// streak shows the failure is persistent — a wedged socket (e.g. a
// firewall rejecting with ICMP faster than we drain errors) must not
// spin a core.
func (s *SharedReceiver) noteReadError() bool {
	if s.closed.Load() {
		return false
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

// dispatch routes one datagram to every subscription of its group. It is
// the per-datagram hot path: a snapshot load, the classifier, and the
// fan-out — no allocation once the read loop's scratch list is warm.
func (s *SharedReceiver) dispatch(frame []byte) {
	g, ok := s.classify(frame)
	if !ok {
		s.unroutable.Inc()
		return
	}
	s.fanOut(s.subs.load().list(g), frame)
}

// dispatchFrames routes a whole received batch under ONE subscription-
// snapshot load — the batch mirror of dispatch, and the reason the
// batched rung beats per-datagram reads even after the syscall win: the
// atomic load and its cache traffic amortize across the run. Frames from
// one batch are delivered in receive order, so the sequence every
// subscription observes is identical to what per-datagram dispatch would
// have produced.
func (s *SharedReceiver) dispatchFrames(frames [][]byte) {
	subs := s.subs.load()
	for _, frame := range frames {
		g, ok := s.classify(frame)
		if !ok {
			s.unroutable.Inc()
			continue
		}
		s.fanOut(subs.list(g), frame)
	}
}

// fanOut delivers frame to a group's subscriptions, one run of
// same-arena subscriptions at a time.
func (s *SharedReceiver) fanOut(subs []*Subscription, frame []byte) {
	for len(subs) > 0 {
		n := 1
		for n < len(subs) && subs[n].arena == subs[0].arena {
			n++
		}
		s.deliver(subs[:n], frame)
		subs = subs[n:]
	}
}

// deliver copies frame once into a free slot of the run's arena and
// queues that slot on every subscription of the run with quota left,
// each holding one reference. A subscription at its quota (consumer too
// slow), or every one when the slot is too small, drops it.
func (s *SharedReceiver) deliver(run []*Subscription, frame []byte) {
	a := run[0].arena
	if len(frame) > a.slotBytes {
		for _, sub := range run {
			sub.drop()
		}
		return
	}
	taken := s.taken[:0]
	for _, sub := range run {
		if sub.out.Add(1) > sub.depth {
			sub.out.Add(-1)
			sub.drop()
			continue
		}
		taken = append(taken, sub)
	}
	s.taken = taken
	if len(taken) == 0 {
		return
	}
	slot := a.get()
	page, i := a.locate(slot)
	copy(page.buf[i*a.slotBytes:], frame)
	page.lens[i] = len(frame)
	page.refs[i].Store(int32(len(taken))) // before any holder can Release
	s.slots.Inc()
	for _, sub := range taken {
		sub.ready <- slot // never blocks: at most depth slots are outstanding
	}
	s.delivered.Add(int64(len(taken)))
}

func (sub *Subscription) drop() {
	sub.dropped.Add(1)
	sub.s.dropped.Inc()
}

// Ready delivers filled slot indices; it is closed when the shared
// receiver shuts down.
func (sub *Subscription) Ready() <-chan int { return sub.ready }

// Frame returns slot's datagram bytes, valid until Release. They may be
// shared with other subscriptions of the group: read them, never write.
func (sub *Subscription) Frame(slot int) []byte {
	page, i := sub.arena.locate(slot)
	off := i * sub.arena.slotBytes
	return page.buf[off : off+page.lens[i]]
}

// Release drops this subscription's reference to slot; the last holder
// returns it to the arena for reuse.
func (sub *Subscription) Release(slot int) {
	sub.out.Add(-1)
	page, i := sub.arena.locate(slot)
	if page.refs[i].Add(-1) == 0 {
		sub.arena.put(slot)
		sub.s.slots.Dec()
	}
}

// Dropped returns how many datagrams this subscription lost to a spent
// quota or an undersized slot.
func (sub *Subscription) Dropped() int64 { return sub.dropped.Load() }

// ReceiverStats is a shared receiver's ledger at one instant.
type ReceiverStats struct {
	// Delivered counts deliveries, one per (datagram, subscription)
	// however many share a slot; Dropped the datagrams lost to a spent
	// quota or an undersized slot; Unroutable those the classifier
	// rejected.
	Delivered  int64 `json:"delivered"`
	Dropped    int64 `json:"dropped"`
	Unroutable int64 `json:"unroutable"`
	// SlotsInUse is how many arena slots hold a frame (queued on or held
	// by at least one subscription) — about one per datagram in flight per
	// slot size, not one per delivery; SlotsPeak the most that ever did at
	// once — times the slot size, the receiver's buffer footprint.
	SlotsInUse int64 `json:"slotsInUse"`
	SlotsPeak  int64 `json:"slotsPeak"`
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
		SlotsInUse:   s.slots.Value(),
		SlotsPeak:    s.slots.High(),
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
