//go:build linux && (amd64 || arm64)

// The sendmmsg stager: the one path by which a batch reaches sendmmsg(2).
// A batch is expanded destination-major — every frame one address is owed,
// in batch order and whatever its group — and each address's frames are cut
// into runs (cutRuns). A run is one message of the syscall, up to
// sendmmsgBatch messages per kernel crossing; a run of more than one frame
// carries a UDP_SEGMENT cmsg, so the kernel traverses the stack once and
// splits the super-frame into the wire datagrams. How long a run may grow is
// the only thing the hub's capabilities decide: maxGSOSegs while GSO is on,
// 1 otherwise (SKYSCRAPER_NO_GSO, a failed probe, a runtime EINVAL
// demotion), and a run of one is a plain datagram.
//
// Runs are cut per destination, not per group: what the kernel needs is one
// address and a legal segment shape, and the listener that matters — a
// shared receive socket subscribed to every group its cohorts watch — hears
// a different group in every frame of a tick. Such a socket gets the whole
// tick as one super-frame (and, with UDP_GRO armed, reads it back as one
// buffer). The batch contract holds at every cap: per-destination failure
// attribution (a failed message marks exactly its run's entries to that
// member), pooled staging arrays, zero steady-state allocations.
package mcast

import (
	"net/netip"
	"os"
	"syscall"
	"unsafe"
)

// gsoCompiled reports at compile time whether this build contains the
// GSO fast path; tests use it to decide what the kill-switch can prove.
const gsoCompiled = true

const (
	// solUDP/udpSegment are SOL_UDP and the UDP_SEGMENT socket option /
	// cmsg type (linux >= 4.18). The stdlib syscall tables predate UDP
	// GSO, so the numbers are hardcoded like sysSendmmsg is.
	solUDP     = 17
	udpSegment = 103

	// maxGSOSegs is the kernel's UDP_MAX_SEGMENTS: the most wire
	// datagrams one super-frame may split into.
	maxGSOSegs = 64

	// maxGSOBytes caps a super-frame's total payload. The kernel bounds
	// a GSO send by the maximum UDP payload (65507 on IPv4); staying a
	// little under leaves room for header accounting differences across
	// kernel versions rather than tripping EMSGSIZE at the boundary.
	maxGSOBytes = 65000
)

// gsoCmsg is the control message carrying the segment size, laid out
// exactly as cmsg(3) requires on these 64-bit targets: an 8-byte-aligned
// cmsghdr (Len counts header + 2 data bytes = 18) followed by the uint16
// segment size, padded to CmsgSpace(2) = 24.
type gsoCmsg struct {
	len   uint64
	level int32
	typ   int32
	size  uint16
	_     [6]byte
}

// gsoMsg is one staged message: the half-open run ds[lo:hi) it gathers
// (every dest in the run shares one destination address), and the segment
// size the kernel should split at. A run of one is sent as a plain
// datagram — no cmsg, no splitting.
type gsoMsg struct {
	lo, hi  int
	segSize int
}

// addrChain is one destination address's frames within a batch: the first
// and last index into gsoBuf.exp, linked through gsoBuf.next in batch
// order.
type addrChain struct {
	head, tail int32
}

// gsoBuf is the reusable staging state of one batch: the entry-major
// expansion and the per-address chains threaded through it, the run
// descriptors and the cap they were cut at, the per-message syscall arrays,
// an iovec arena indexed by destination (ds[k]'s iovec is iovs[k], so a
// run's gather list is the contiguous iovs[lo:hi)), a cursor into msgs, and
// the RawConn.Write callback, bound once so the hot path never allocates a
// closure. Pooled via batchBuf.
type gsoBuf struct {
	exp    []dest
	next   []int32
	chains []addrChain
	byAddr map[netip.AddrPort]int32

	msgs    []gsoMsg
	maxSegs int
	iovs    []syscall.Iovec
	hdrs    [sendmmsgBatch]mmsghdr
	sa4     [sendmmsgBatch]syscall.RawSockaddrInet4
	sa6     [sendmmsgBatch]syscall.RawSockaddrInet6
	cmsgs   [sendmmsgBatch]gsoCmsg

	h     *Hub
	ds    []dest
	idx   int
	first error
	fn    func(fd uintptr) bool
}

// initGSO raises the stager's run cap at hub creation: declined by the
// SKYSCRAPER_NO_GSO kill-switch, skipped when the stager itself is off,
// and probed against the kernel (a setsockopt trial of UDP_SEGMENT; value
// 0 is valid-but-disabled on supporting kernels and ENOPROTOOPT before
// 4.18). Each decline is logged once and counted in GSOFallbacks.
func (h *Hub) initGSO() {
	if os.Getenv(NoGSOEnv) != "" {
		h.gsoFallbacks.Inc()
		h.logf("mcast: UDP GSO disabled via %s; batches fall back to per-datagram sends", NoGSOEnv)
		return
	}
	if !h.vectorized.Load() {
		return // no sendmmsg message to attach the cmsg to
	}
	if !h.probeGSO() {
		h.gsoFallbacks.Inc()
		h.logf("mcast: kernel rejected UDP_SEGMENT probe; batches fall back to per-datagram sendmmsg")
		return
	}
	h.gsoCapable = true
	h.gsoOn.Store(true)
}

// probeGSO asks the kernel whether the sending socket accepts
// UDP_SEGMENT. Setting the option to 0 is a no-op on supporting kernels
// (per-socket GSO stays disabled; the hub segments per message via
// cmsg), so the probe has no side effect.
func (h *Hub) probeGSO() bool {
	ok := false
	if err := h.rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil
	}); err != nil {
		return false
	}
	return ok
}

// SetGSO is a test hook that forces super-frames on or off, returning
// whether they are now on. Enabling fails where the creation-time probe
// did not pass or the stager is off.
func (h *Hub) SetGSO(on bool) bool {
	if !on {
		h.gsoOn.Store(false)
		return false
	}
	if !h.gsoCapable || !h.vectorized.Load() {
		return false
	}
	h.gsoOn.Store(true)
	return true
}

// writeDestsStaged is SendBatch's sendmmsg body. It expands the batch
// entry-major, as the portable writer does, threading each (frame, member)
// pair onto its member address's chain, and then lays the chains out one
// after another in bb.ds: every address's frames, in batch order and
// whatever their group, cut into maximal runs of the shape the hub may
// send (cutRuns). Each run becomes one staged message whose destinations
// are the contiguous ds[lo:hi). Every member receives exactly the frames
// writeDestsGeneric would send it, in the same order — the golden
// equivalence gate holds — and failed destinations are marked in place.
func (h *Hub) writeDestsStaged(bb *batchBuf, m groupMap[netip.AddrPort], entries []BatchEntry) error {
	gb := bb.stage
	if gb == nil {
		gb = &gsoBuf{byAddr: make(map[netip.AddrPort]int32)}
		gb.fn = gb.step
		bb.stage = gb
	}
	exp, next, chains := gb.exp[:0], gb.next[:0], gb.chains[:0]
	for ei := range entries {
		g := entries[ei].Group
		for _, ap := range m.list(g) {
			k := int32(len(exp))
			exp = append(exp, dest{ap: ap, frame: entries[ei].Frame, group: g})
			next = append(next, -1)
			if ci, seen := gb.byAddr[ap]; seen {
				next[chains[ci].tail] = k
				chains[ci].tail = k
			} else {
				gb.byAddr[ap] = int32(len(chains))
				chains = append(chains, addrChain{head: k, tail: k})
			}
		}
	}
	clear(gb.byAddr)
	gb.maxSegs = 1
	if h.gsoOn.Load() {
		gb.maxSegs = maxGSOSegs
	}
	ds, msgs := bb.ds[:0], gb.msgs[:0]
	for _, ch := range chains {
		lo := len(ds)
		for k := ch.head; k >= 0; k = next[k] {
			ds = append(ds, exp[k])
		}
		msgs = cutRuns(msgs, ds, lo, gb.maxSegs)
	}
	gb.exp, gb.next, gb.chains = exp, next, chains
	bb.ds = ds
	gb.msgs = msgs
	if len(ds) == 0 {
		return nil
	}
	if cap(gb.iovs) < len(ds) {
		gb.iovs = make([]syscall.Iovec, len(ds))
	}
	gb.iovs = gb.iovs[:len(ds)]

	gb.h = h
	gb.ds = ds
	gb.idx = 0
	gb.first = nil
	// RawConn.Write runs the callback until it returns true, parking the
	// goroutine on the netpoller whenever the socket's send buffer is full.
	if err := h.rc.Write(gb.fn); err != nil {
		// The runtime refused the write (socket closed mid-batch):
		// every message past the cursor never reached the kernel.
		for i := gb.idx; i < len(gb.msgs); i++ {
			for k := gb.msgs[i].lo; k < gb.msgs[i].hi; k++ {
				ds[k].failed = true
			}
		}
		if gb.first == nil {
			gb.first = err
		}
	}
	first := gb.first
	gb.h = nil
	gb.ds = nil
	gb.first = nil
	return first
}

// cutRuns appends the runs of ds[lo:] — one address's frames in the order
// it must receive them — to msgs. A run is the longest stretch the kernel
// will segment back into exactly these frames: every frame the size of
// the first except a shorter final one, at most maxSegs frames and
// maxGSOBytes in all. A frame larger than the open run's segment size or
// an empty one therefore closes the run and opens the next, and a shorter
// one closes it behind itself.
func cutRuns(msgs []gsoMsg, ds []dest, lo, maxSegs int) []gsoMsg {
	for lo < len(ds) {
		segSize := len(ds[lo].frame)
		bytes := segSize
		hi := lo + 1
		if segSize > 0 {
			for hi < len(ds) && hi-lo < maxSegs {
				n := len(ds[hi].frame)
				if n == 0 || n > segSize || bytes+n > maxGSOBytes {
					break
				}
				bytes += n
				hi++
				if n < segSize {
					break // a short segment is only legal as the final one
				}
			}
		}
		msgs = append(msgs, gsoMsg{lo: lo, hi: hi, segSize: segSize})
		lo = hi
	}
	return msgs
}

// step is the RawConn.Write callback: it advances the cursor through the
// staged messages one sendmmsg at a time. Returning false parks the
// goroutine until the socket is writable again; returning true ends the
// batch. sendmmsg errors only when its *first* message fails, so an errno
// marks exactly msgs[idx]'s run failed and the loop resumes one past it —
// the per-destination semantics of the portable one-write-each loop. An
// EINVAL on a genuine super-frame additionally lowers the hub's run cap to
// one — the kernel accepted the probe but rejected the real shape, and
// failing every future tick would be worse than losing the optimization.
func (gb *gsoBuf) step(fd uintptr) bool {
	for gb.idx < len(gb.msgs) {
		n := gb.prepare()
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&gb.hdrs[0])), uintptr(n), 0, 0, 0)
		gb.h.syscalls.Inc()
		if gb.maxSegs > 1 {
			gb.h.gsoSyscalls.Inc()
		}
		if errno != 0 {
			switch errno {
			case syscall.EAGAIN:
				return false
			case syscall.EINTR:
				continue
			default:
				msg := &gb.msgs[gb.idx]
				for k := msg.lo; k < msg.hi; k++ {
					gb.ds[k].failed = true
				}
				if gb.first == nil {
					gb.first = errno
				}
				if errno == syscall.EINVAL && msg.hi-msg.lo > 1 && gb.h.gsoOn.CompareAndSwap(true, false) {
					gb.h.gsoFallbacks.Inc()
					gb.h.logf("mcast: kernel rejected a UDP_SEGMENT super-frame (EINVAL); demoting to per-datagram sendmmsg")
				}
				gb.idx++
			}
			continue
		}
		for i := 0; i < int(r1); i++ {
			msg := &gb.msgs[gb.idx+i]
			if segs := msg.hi - msg.lo; segs > 1 {
				gb.h.superframes.Inc()
				gb.h.gsoSegments.Add(int64(segs))
			}
		}
		gb.idx += int(r1)
	}
	return true
}

// prepare fills the syscall arrays from msgs[idx:] — up to sendmmsgBatch
// headers, each one run (gather list iovs[lo:hi)) to one destination — and
// returns how many it staged. Runs of more than one segment carry the
// UDP_SEGMENT cmsg; runs of one go out as plain datagrams.
func (gb *gsoBuf) prepare() int {
	n := len(gb.msgs) - gb.idx
	if n > sendmmsgBatch {
		n = sendmmsgBatch
	}
	for i := 0; i < n; i++ {
		msg := &gb.msgs[gb.idx+i]
		for k := msg.lo; k < msg.hi; k++ {
			iov := &gb.iovs[k]
			f := gb.ds[k].frame
			if len(f) > 0 {
				iov.Base = &f[0]
			} else {
				iov.Base = nil
			}
			iov.SetLen(len(f))
		}

		hdr := &gb.hdrs[i].hdr
		d := &gb.ds[msg.lo]
		addr := d.ap.Addr()
		p := d.ap.Port()
		if addr.Is4() {
			sa := &gb.sa4[i]
			sa.Family = syscall.AF_INET
			sa.Port = p<<8 | p>>8 // network byte order on these LE targets
			sa.Addr = addr.As4()
			hdr.Name = (*byte)(unsafe.Pointer(sa))
			hdr.Namelen = syscall.SizeofSockaddrInet4
		} else {
			sa := &gb.sa6[i]
			sa.Family = syscall.AF_INET6
			sa.Port = p<<8 | p>>8
			sa.Flowinfo = 0
			sa.Addr = addr.As16()
			sa.Scope_id = 0
			hdr.Name = (*byte)(unsafe.Pointer(sa))
			hdr.Namelen = syscall.SizeofSockaddrInet6
		}
		hdr.Iov = &gb.iovs[msg.lo]
		hdr.Iovlen = uint64(msg.hi - msg.lo)
		if msg.hi-msg.lo > 1 {
			c := &gb.cmsgs[i]
			c.len = uint64(syscall.CmsgLen(2))
			c.level = solUDP
			c.typ = udpSegment
			c.size = uint16(msg.segSize)
			hdr.Control = (*byte)(unsafe.Pointer(c))
			hdr.Controllen = uint64(syscall.CmsgSpace(2))
		} else {
			hdr.Control = nil
			hdr.Controllen = 0
		}
		hdr.Flags = 0
		gb.hdrs[i].n = 0
	}
	return n
}
