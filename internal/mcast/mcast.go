// Package mcast provides the multicast substrate for the live broadcast
// demo. The paper assumes "the multicast facility of modern communication
// networks"; on a single machine we substitute a hub that fans each
// group send out to every joined receiver over loopback UDP — semantically
// a multicast group (senders are unaware of membership; receivers join and
// leave at will), physically unicast datagrams, which preserves exactly the
// delivery behavior the broadcasting schemes depend on.
//
// Membership is kept copy-on-write behind atomic pointers (groupLists):
// Join and Leave replace one group's member list under a mutex, while
// Send and SendBatch — the hot path of every egress shard — read the
// current lists with no locking and no allocation. Delivery is
// best-effort, as multicast is: one failing receiver never starves the
// rest of the group.
package mcast

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

	"skyscraper/internal/metrics"
)

// Group identifies one logical broadcast channel: a (video, channel) pair.
type Group struct {
	Video   int
	Channel int
}

// String implements fmt.Stringer.
func (g Group) String() string { return fmt.Sprintf("video%d/ch%d", g.Video, g.Channel) }

// Sender is the hub's datagram fan-out, factored out so a fault-injection
// layer (internal/faults) can interpose between the server's senders and
// the wire without the senders knowing.
type Sender interface {
	// Send delivers one datagram to every current member of g, returning
	// how many receivers it was written to.
	Send(g Group, frame []byte) (int, error)
}

// groupMap is one immutable snapshot of which groups have members: each
// present group maps to its member list, which writers replace (never
// mutate) behind its own atomic pointer. A group is present exactly when
// its list is non-empty.
type groupMap[T any] map[Group]*atomic.Pointer[[]T]

// list returns group g's current members.
func (m groupMap[T]) list(g Group) []T {
	if p := m[g]; p != nil {
		return *p.Load()
	}
	return nil
}

// groupLists is a copy-on-write registry of one member list per group,
// read without locks. Writers, serialized by their owner's mutex, publish
// a fresh list for the group they touch; only a group's first member or
// last leaver publishes a new map, so a join or leave copies one group's
// list, not every group's. The hub's membership and the shared
// receiver's subscriptions are both one.
type groupLists[T any] struct{ m atomic.Pointer[groupMap[T]] }

// init publishes the empty map, so the registry is never the zero value.
func (gl *groupLists[T]) init() { gl.m.Store(&groupMap[T]{}) }

// load returns the current snapshot — one atomic load.
func (gl *groupLists[T]) load() groupMap[T] { return *gl.m.Load() }

// store publishes list as group g's members (writers only; list must
// never be mutated afterwards). An empty list removes the group.
func (gl *groupLists[T]) store(g Group, list []T) {
	cur := gl.load()
	p := cur[g]
	switch {
	case p != nil && len(list) > 0:
		p.Store(&list)
		return
	case p == nil && len(list) == 0:
		return
	}
	next := make(groupMap[T], len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if len(list) == 0 {
		delete(next, g)
	} else {
		p = new(atomic.Pointer[[]T])
		p.Store(&list)
		next[g] = p
	}
	gl.m.Store(&next)
}

// EvictAfterFailures is how many consecutive send failures remove a member
// from its group: a receiver whose address errors on every write (torn
// down, unroutable) would otherwise be re-tried on every datagram forever,
// taxing each broadcast with a doomed syscall. One success resets the
// count, so a flaky-but-alive member is never evicted.
const EvictAfterFailures = 8

// memberKey identifies one (group, member) edge for failure tracking.
type memberKey struct {
	g  Group
	ap netip.AddrPort
}

// Hub is the group registry and sender. All methods are safe for
// concurrent use.
type Hub struct {
	// mu serializes the writers (Join, Leave, Close). Send never takes it.
	mu      sync.Mutex
	conn    *net.UDPConn
	members groupLists[netip.AddrPort]
	closed  atomic.Bool
	logf    func(format string, args ...any)

	// rc is the sending socket's raw handle, used by the sendmmsg stager
	// (gso_linux.go); vectorized reports whether the stager is compiled in
	// and enabled. On platforms without it, or with it disabled via
	// NoSendmmsgEnv or SetVectorized(false), every write goes through
	// WriteToUDPAddrPort.
	rc         syscall.RawConn
	vectorized atomic.Bool

	// gsoOn lets the stager send an address's run of frames as one
	// UDP_SEGMENT super-frame; off, every run is one frame. gsoCapable
	// records the creation-time capability probe, so the test hook SetGSO
	// can re-arm it only where the kernel accepted it.
	gsoOn      atomic.Bool
	gsoCapable bool

	// The egress ledger Stats reports as HubStats, field for field. Padded:
	// the counters are bumped concurrently by every egress shard, and
	// unpadded neighbors would share cache lines.
	sent         metrics.PaddedCounter
	sentBytes    metrics.PaddedCounter
	failed       metrics.PaddedCounter
	batches      metrics.PaddedCounter
	batchedBytes metrics.PaddedCounter
	syscalls     metrics.PaddedCounter
	repairSent   metrics.PaddedCounter
	superframes  metrics.PaddedCounter
	gsoSegments  metrics.PaddedCounter
	gsoSyscalls  metrics.PaddedCounter
	gsoFallbacks metrics.PaddedCounter

	// failing tracks consecutive send failures per (group, member) edge,
	// under mu; a member reaching EvictAfterFailures is removed from its
	// group. nfailing mirrors len(failing) so the Send success path can
	// skip the mutex (and stay allocation-free) while nothing is failing.
	failing  map[memberKey]int
	nfailing atomic.Int32
	evicted  metrics.PaddedCounter

	// sink is the warm sink's raw descriptor (warm_linux.go), -1 when
	// there is none or the hub is closed, and sinkAP its address; sinkMu
	// keeps Close from closing it under a Warm. warms counts the warms
	// sent.
	sinkMu sync.RWMutex
	sink   int
	sinkAP netip.AddrPort
	warms  metrics.PaddedCounter
}

var (
	_ Sender      = (*Hub)(nil)
	_ BatchSender = (*Hub)(nil)
)

// NewHub opens the hub's sending socket with default kernel buffers.
func NewHub() (*Hub, error) { return NewHubConfigured(HubConfig{}) }

// HubConfig parameterizes NewHubConfigured.
type HubConfig struct {
	// SendBufBytes > 0 calls SetWriteBuffer on the sending socket (the
	// knob that matters — a batched egress engine can hand the kernel
	// bursts of dozens of datagrams per syscall, and a default-sized send
	// buffer drops the tail of a burst under load). Zero leaves the OS
	// default.
	SendBufBytes int
	// RecvBufBytes > 0 calls SetReadBuffer (only error/ICMP traffic lands
	// there; sized for symmetry). Zero leaves the OS default.
	RecvBufBytes int
	// Logf, when non-nil, receives the hub's diagnostic notices — the
	// single fall-back line the GSO probe emits when the kernel
	// capability is missing or kill-switched.
	Logf func(format string, args ...any)
}

// NewHubConfigured opens the hub's sending socket, sizes its kernel
// buffers, and probes the platform fast paths (sendmmsg, UDP GSO).
func NewHubConfigured(cfg HubConfig) (*Hub, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("mcast: opening sender socket: %w", err)
	}
	if cfg.SendBufBytes > 0 {
		if err := conn.SetWriteBuffer(cfg.SendBufBytes); err != nil {
			conn.Close()
			return nil, fmt.Errorf("mcast: sizing send buffer: %w", err)
		}
	}
	if cfg.RecvBufBytes > 0 {
		if err := conn.SetReadBuffer(cfg.RecvBufBytes); err != nil {
			conn.Close()
			return nil, fmt.Errorf("mcast: sizing receive buffer: %w", err)
		}
	}
	h := &Hub{conn: conn, logf: cfg.Logf, sink: -1}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	h.members.init()
	h.initVectorized()
	h.initGSO()
	h.initWarm()
	return h, nil
}

// addrPort converts a UDP address to the netip form the lock-free send
// loop writes to, unmapping 4-in-6 so it matches the hub's IPv4 socket.
func addrPort(addr *net.UDPAddr) netip.AddrPort {
	ap := addr.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Join subscribes addr to group g. Joining twice is a no-op.
func (h *Hub) Join(g Group, addr *net.UDPAddr) error {
	if addr == nil {
		return fmt.Errorf("mcast: join %v with nil address", g)
	}
	ap := addrPort(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Load() {
		return fmt.Errorf("mcast: hub closed")
	}
	cur := h.members.load().list(g)
	if slices.Contains(cur, ap) {
		return nil
	}
	h.members.store(g, append(cur[:len(cur):len(cur)], ap))
	return nil
}

// Leave unsubscribes addr from group g. Leaving a group the address never
// joined is a no-op.
func (h *Hub) Leave(g Group, addr *net.UDPAddr) {
	if addr == nil {
		return
	}
	ap := addrPort(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.removeLocked(g, ap)
	h.forgetLocked(memberKey{g, ap})
}

// removeLocked drops ap from group g in a fresh list. Callers hold mu.
func (h *Hub) removeLocked(g Group, ap netip.AddrPort) {
	cur := h.members.load().list(g)
	if idx := slices.Index(cur, ap); idx >= 0 {
		h.members.store(g, slices.Delete(slices.Clone(cur), idx, idx+1))
	}
}

// forgetLocked clears ap's failure record. Callers hold mu.
func (h *Hub) forgetLocked(k memberKey) {
	if _, ok := h.failing[k]; !ok {
		return
	}
	delete(h.failing, k)
	h.nfailing.Store(int32(len(h.failing)))
}

// noteFailure records one failed write to (g, ap) and evicts the member
// once it accumulates EvictAfterFailures consecutive failures.
func (h *Hub) noteFailure(g Group, ap netip.AddrPort) {
	k := memberKey{g, ap}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failing == nil {
		h.failing = make(map[memberKey]int)
	}
	h.failing[k]++
	if h.failing[k] >= EvictAfterFailures {
		h.removeLocked(g, ap)
		delete(h.failing, k)
		h.evicted.Inc()
	}
	h.nfailing.Store(int32(len(h.failing)))
}

// noteSuccess resets ap's consecutive-failure count. Callers invoke it only
// when nfailing is non-zero, keeping the all-healthy Send path lock-free.
func (h *Hub) noteSuccess(g Group, ap netip.AddrPort) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.forgetLocked(memberKey{g, ap})
}

// Members returns the current subscriber count of g.
func (h *Hub) Members(g Group) int {
	return len(h.members.load().list(g))
}

// Listeners is a read-only view of one membership snapshot: which groups
// had a member at the moment it was taken. A tick-driven sender takes one
// per tick and skips building frames for groups nobody hears; a member
// that joins after the snapshot starts with the next tick. Snapshots are
// immutable, so two Listeners compare equal (==) exactly when no group
// gained its first member or lost its last in between — a sender that
// remembers the answers it drew from one need not ask again until the
// comparison fails. The zero Listeners hears nothing.
type Listeners struct{ m *groupMap[netip.AddrPort] }

// Listeners returns the current membership snapshot — one atomic load, no
// lock, no allocation.
func (h *Hub) Listeners() Listeners { return Listeners{h.members.m.Load()} }

// Heard reports whether g had at least one member.
func (l Listeners) Heard(g Group) bool {
	if l.m == nil {
		return false
	}
	_, ok := (*l.m)[g]
	return ok
}

// Send delivers one datagram to every current member of g, returning how
// many receivers it was written to. A send to an empty group succeeds and
// reaches zero receivers — broadcast semantics, senders never block on
// membership. It is a SendBatch of one entry: same lock-free snapshot
// read, same best-effort delivery, same ledger, no allocation.
func (h *Hub) Send(g Group, frame []byte) (int, error) {
	one := [1]BatchEntry{{Group: g, Frame: frame}}
	return h.SendBatch(one[:])
}

// Vectorized reports whether the sendmmsg fast path is active.
func (h *Hub) Vectorized() bool { return h.vectorized.Load() }

// GSO reports whether the UDP_SEGMENT super-frame path is active.
func (h *Hub) GSO() bool { return h.gsoOn.Load() }

// HubStats is the hub's egress ledger at one instant. Its json keys are
// the ones the server's /status document publishes it under.
type HubStats struct {
	// DatagramsSent and DatagramBytes count datagrams and payload bytes
	// written; SendFailures the member writes that failed (the rest of the
	// group was still served); Memberships the current (member, group)
	// joins; MembersEvicted the members removed after EvictAfterFailures
	// consecutive failures.
	DatagramsSent  int64 `json:"datagramsSent"`
	DatagramBytes  int64 `json:"datagramBytes"`
	SendFailures   int64 `json:"sendFailures"`
	Memberships    int   `json:"memberships"`
	MembersEvicted int64 `json:"membersEvicted"`
	// RepairDatagrams counts the datagrams sent through SendRepairBatch
	// (NACK-triggered re-sends), so repair traffic is told
	// apart from schedule traffic on the same batch path.
	RepairDatagrams int64 `json:"repairDatagrams"`
	// EgressBatches counts SendBatch dispatches (a Send is one) that
	// reached at least one destination, BatchedBytes their bytes, and
	// EgressSyscalls the kernel send invocations (sendmmsg calls on the
	// vectorized path, one per datagram otherwise), so
	// DatagramsSent/EgressSyscalls is the batching factor.
	EgressBatches  int64 `json:"egressBatches"`
	BatchedBytes   int64 `json:"batchedBytes"`
	EgressSyscalls int64 `json:"egressSyscalls"`
	Vectorized     bool  `json:"vectorized"`
	// The super-frame (UDP GSO) ledger: Superframes counts super-datagrams
	// put on the wire, GSOSegments the wire frames they carried (one
	// MTU-sized datagram each after the kernel split), GSOSyscalls the
	// sendmmsg calls that carried them, and the two ratios follow from
	// those. GSOFallbacks counts the times the path was declined or
	// abandoned: the creation-time probe failing, the SKYSCRAPER_NO_GSO
	// kill-switch, or a runtime demotion after the kernel rejected one.
	GSO                   bool    `json:"gso"`
	Superframes           int64   `json:"superframes"`
	GSOSegments           int64   `json:"gsoSegments"`
	GSOSyscalls           int64   `json:"gsoSyscalls"`
	SegmentsPerSuperframe float64 `json:"segmentsPerSuperframe"`
	SegmentsPerSyscall    float64 `json:"segmentsPerSyscall"`
	GSOFallbacks          int64   `json:"gsoFallbacks"`
	// EgressWarms counts Warm's datagrams: each went to the hub's own
	// sink, none to a member, and none is in any count above.
	EgressWarms int64 `json:"egressWarms"`
}

// Stats returns the hub's ledger.
func (h *Hub) Stats() HubStats {
	st := HubStats{
		DatagramsSent:   h.sent.Value(),
		DatagramBytes:   h.sentBytes.Value(),
		SendFailures:    h.failed.Value(),
		MembersEvicted:  h.evicted.Value(),
		RepairDatagrams: h.repairSent.Value(),
		EgressBatches:   h.batches.Value(),
		BatchedBytes:    h.batchedBytes.Value(),
		EgressSyscalls:  h.syscalls.Value(),
		Vectorized:      h.Vectorized(),
		GSO:             h.GSO(),
		Superframes:     h.superframes.Value(),
		GSOSegments:     h.gsoSegments.Value(),
		GSOSyscalls:     h.gsoSyscalls.Value(),
		GSOFallbacks:    h.gsoFallbacks.Value(),
		EgressWarms:     h.warms.Value(),
	}
	m := h.members.load()
	for g := range m {
		st.Memberships += len(m.list(g))
	}
	if st.Superframes > 0 {
		st.SegmentsPerSuperframe = float64(st.GSOSegments) / float64(st.Superframes)
	}
	if st.GSOSyscalls > 0 {
		st.SegmentsPerSyscall = float64(st.GSOSegments) / float64(st.GSOSyscalls)
	}
	return st
}

// Close shuts the sending socket and the warm sink; subsequent Joins and
// Sends fail, and Warms do nothing.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed.Swap(true) {
		return nil
	}
	h.closeSink()
	return h.conn.Close()
}

// Receiver is a convenience wrapper for a client-side UDP socket with a
// large receive buffer (broadcast bursts must not drop on loopback).
type Receiver struct {
	Conn *net.UDPConn
}

// DefaultRecvBufBytes is the receiver's kernel buffer size when the
// caller does not choose one: broadcast traffic is bursty — with batched
// egress, deliberately so — and 4 MiB absorbs a burst while the client
// goroutine is scheduled out.
const DefaultRecvBufBytes = 4 << 20

// NewReceiver opens a loopback UDP socket on an ephemeral port with the
// default receive buffer.
func NewReceiver() (*Receiver, error) { return NewReceiverSized(0) }

// NewReceiverSized is NewReceiver with an explicit kernel receive-buffer
// size in bytes; zero or negative selects DefaultRecvBufBytes.
func NewReceiverSized(rcvBuf int) (*Receiver, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("mcast: opening receiver socket: %w", err)
	}
	if rcvBuf <= 0 {
		rcvBuf = DefaultRecvBufBytes
	}
	if err := conn.SetReadBuffer(rcvBuf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mcast: sizing receive buffer: %w", err)
	}
	return &Receiver{Conn: conn}, nil
}

// Addr returns the receiver's UDP address.
func (r *Receiver) Addr() *net.UDPAddr { return r.Conn.LocalAddr().(*net.UDPAddr) }

// Close closes the socket.
func (r *Receiver) Close() error { return r.Conn.Close() }
