//go:build linux && (amd64 || arm64)

// Warming the send path. On loopback the first datagram a socket sends
// after a quiet gap of 5 ms or more takes ~70 µs from the send to the
// receiver's kernel stamp, and one sent right behind another datagram
// 20–27 µs (BenchmarkEgressWarm): between two ticks the kernel's transmit
// path (route, socket, UDP and IP output, the loopback device and the
// receive softirq it runs) falls out of the caches. A spin or a cheap
// syscall beforehand does not bring it back; only a datagram does. Warm sends one, from the hub's own socket so its route and socket
// state are what get warmed, to a sink only the hub knows — the trick
// kernel-bypass stacks ship as a send flag (Onload's ONLOAD_MSG_WARM),
// done with plain sockets. An egress shard warms inside its wake lead, so
// the datagram a listener waits for leaves on a warm path at the instant.
//
// The sink is opened with socket(2), not net.ListenUDP, so the runtime
// poller never registers it: a warm datagram landing there makes no
// descriptor ready that any poller thread waits on, and wakes nobody. The
// warm reads it straight back, without blocking.
package mcast

import (
	"net/netip"
	"syscall"
)

// warmFrame is what a warm sends: one byte, which only the sink hears.
var warmFrame = [1]byte{}

// initWarm opens the hub's warm sink. A hub whose sink cannot be opened
// does not warm.
func (h *Hub) initWarm() {
	fd, ap, err := openSink()
	if err != nil {
		h.logf("mcast: no warm sink (%v); the send path is not warmed", err)
		return
	}
	h.sink, h.sinkAP = fd, ap
}

// openSink opens a non-blocking, close-on-exec loopback UDP socket on an
// ephemeral port and returns it with its address.
func openSink() (int, netip.AddrPort, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, netip.AddrPort{}, err
	}
	lo := [4]byte{127, 0, 0, 1}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: lo}); err != nil {
		syscall.Close(fd)
		return -1, netip.AddrPort{}, err
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		syscall.Close(fd)
		return -1, netip.AddrPort{}, err
	}
	return fd, netip.AddrPortFrom(netip.AddrFrom4(lo), uint16(sa.(*syscall.SockaddrInet4).Port)), nil
}

// Warm sends one datagram from the hub's socket to its private sink and
// reads one back, so that the next send runs on a warm path. Nothing a
// member can hear leaves, and the egress ledger does not move: a warm
// counts only in EgressWarms. It does not block and allocates nothing; on
// a closed hub it does nothing. Safe for concurrent use: concurrent warms
// may read each other's datagrams, and between them they read all.
func (h *Hub) Warm() {
	h.sinkMu.RLock()
	defer h.sinkMu.RUnlock()
	if h.sink < 0 {
		return
	}
	if _, err := h.conn.WriteToUDPAddrPort(warmFrame[:], h.sinkAP); err != nil {
		return
	}
	h.warms.Inc()
	// One read a warm keeps the sink drained: every warm sends before it
	// reads, so the sink holds at least one datagram when a read comes.
	var buf [len(warmFrame)]byte
	syscall.Read(h.sink, buf[:])
}

// closeSink closes the warm sink once no warm is using it.
func (h *Hub) closeSink() {
	h.sinkMu.Lock()
	defer h.sinkMu.Unlock()
	if h.sink >= 0 {
		syscall.Close(h.sink)
		h.sink = -1
	}
}
