//go:build linux && (amd64 || arm64)

// The ingress ladder's fast rungs: recvmmsg(2) batched receive and UDP
// GRO coalesced receive — the mirror image of hub_linux.go and
// gso_linux.go. One recvmmsg call drains up to the configured batch of
// datagrams into a reusable landing zone, so a burst of 64 costs one
// kernel crossing instead of 64; with UDP_GRO armed on top, the kernel
// hands a whole super-frame burst (the shape gso_linux.go emits) over as
// ONE coalesced buffer plus a cmsg naming the segment size, and the
// split back into wire-sized frames happens in userspace — one traversal
// of the stack per burst, closing the send/receive symmetry.
//
// Everything the syscall needs lives in one recvBuf owned by the read
// goroutine, so the steady-state batched read allocates nothing. Its
// landing zone is an anonymous private mapping, not a Go slice: the GC
// would count the whole 4 MiB as live heap and pace twice that much
// garbage headroom against it, though only the pages datagrams land on
// are ever touched. The platform restriction matches hub_linux.go
// (stdlib Msghdr layout and the hardcoded syscall numbers); every other
// platform compiles stub.go and reads one datagram per syscall.
package mcast

import (
	"os"
	"syscall"
	"unsafe"
)

// recvCompiled reports at compile time whether this build contains the
// batched-receive fast path; tests use it to decide what the
// kill-switches can prove.
const recvCompiled = true

const (
	// udpGRO is the UDP_GRO socket option / cmsg type (linux >= 5.0);
	// hardcoded like udpSegment because the stdlib tables predate it.
	udpGRO = 104

	// msgDontwait keeps recvmmsg from blocking in the kernel: the read
	// loop parks on the runtime netpoller (RawConn.Read) instead, so
	// Close and deadlines keep working.
	msgDontwait = 0x40
)

// groCmsg is the control message the kernel attaches to a coalesced
// receive, laid out as cmsg(3) requires on these 64-bit targets: an
// 8-byte-aligned cmsghdr followed by the segment size. Unlike the
// send-side UDP_SEGMENT cmsg (uint16), the receive side carries an int —
// the kernel puts sizeof(int) bytes — so CmsgLen(4)=20, padded to
// CmsgSpace(4)=24.
type groCmsg struct {
	len   uint64
	level int32
	typ   int32
	size  int32
	_     [4]byte
}

// recvBuf is the reusable state of the batched read loop: fixed syscall
// arrays sized to recvBatch, one contiguous maxDatagram-strided
// landing zone the iovecs point into (mapped outside the Go heap, and
// unmapped by the run goroutine once it has dispatched its last batch),
// and the frame views rebuilt from it after every drain. It is owned by
// the run goroutine; fn and nowait are the pre-bound RawConn.Read and
// RawConn.Control callbacks, a read that waits and one that does not
// (bound once so the hot path never allocates a closure).
type recvBuf struct {
	hdrs  [recvBatch]mmsghdr
	iovs  [recvBatch]syscall.Iovec
	ctrls [recvBatch]groCmsg
	bufs  []byte

	frames [][]byte
	n      int
	errno  syscall.Errno
	s      *SharedReceiver
	fn     func(fd uintptr) bool
	nowait func(fd uintptr)
}

// initRecv arms the ingress ladder at receiver creation: the recvmmsg
// rung first (declined silently by SKYSCRAPER_NO_RECVMMSG — the fallback
// is behavior-identical, mirroring initVectorized — and probed against
// the kernel, then declined with a log line if its landing zone cannot
// be mapped), then the GRO rung on top of it (declined by
// SKYSCRAPER_NO_GRO or a failed sockopt, each logged once and counted in
// GROFallbacks).
func (s *SharedReceiver) initRecv() {
	rc, err := s.conn.SyscallConn()
	if err != nil {
		return
	}
	s.rc = rc
	if os.Getenv(NoRecvmmsgEnv) != "" {
		return
	}
	if !s.probeRecvmmsg() {
		s.logf("mcast: kernel lacks recvmmsg; shared receiver falls back to per-datagram reads")
		return
	}
	bufs, err := syscall.Mmap(-1, 0, recvBatch*maxDatagram,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		s.logf("mcast: cannot map the recvmmsg landing zone (%v); shared receiver falls back to per-datagram reads", err)
		return
	}
	rb := &recvBuf{s: s, bufs: bufs}
	rb.fn = rb.step
	rb.nowait = func(fd uintptr) { rb.step(fd) }
	rb.frames = make([][]byte, 0, recvBatch)
	s.rb = rb
	s.mmsgOn.Store(true)

	// The GRO rung rides the batched reader: only the cmsg-aware recvmmsg
	// path may ever read a socket with UDP_GRO armed (a plain read would
	// deliver a coalesced buffer as one giant frame), so GRO is not
	// offered without it.
	if os.Getenv(NoGROEnv) != "" {
		s.groFallbacks.Inc()
		s.logf("mcast: UDP GRO disabled via %s; super-frames arrive kernel-segmented", NoGROEnv)
		return
	}
	if !s.setGROSockopt(true) {
		s.groFallbacks.Inc()
		s.logf("mcast: kernel rejected UDP_GRO; super-frames arrive kernel-segmented")
		return
	}
	s.groOn.Store(true)
}

// freeRecv unmaps the landing zone. The run goroutine calls it once its
// last handler call has returned, so no frame view into the zone outlives
// it (a handler keeps nothing it was handed).
func (s *SharedReceiver) freeRecv() {
	if s.rb == nil {
		return
	}
	if err := syscall.Munmap(s.rb.bufs); err != nil {
		s.logf("mcast: unmapping the recvmmsg landing zone: %v", err)
	}
	s.rb.bufs = nil // a stray use panics on bounds instead of faulting
}

// probeRecvmmsg asks the kernel whether recvmmsg exists. A zero-length
// vector returns 0 immediately on supporting kernels — no datagram is
// consumed, no block — and ENOSYS where the syscall is missing.
func (s *SharedReceiver) probeRecvmmsg() bool {
	ok := false
	if err := s.rc.Control(func(fd uintptr) {
		_, _, errno := syscall.Syscall6(sysRecvmmsg, fd, 0, 0, msgDontwait, 0, 0)
		ok = errno != syscall.ENOSYS
	}); err != nil {
		return false
	}
	return ok
}

// setGROSockopt flips UDP_GRO on the shared socket, reporting success.
func (s *SharedReceiver) setGROSockopt(on bool) bool {
	v := 0
	if on {
		v = 1
	}
	ok := false
	if err := s.rc.Control(func(fd uintptr) {
		ok = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, v) == nil
	}); err != nil {
		return false
	}
	return ok
}

// readBatched is read's recvmmsg rung. An EINVAL/ENOSYS from the real
// call after a passing probe demotes the receiver to the portable rung
// for good (disarming GRO first) — failing every read would be worse
// than losing the optimization; other errors go through the shared
// backoff tail, save that a read that does not wait leaves them to the
// next one that does.
func (s *SharedReceiver) readBatched(wait bool) ([][]byte, bool) {
	rb := s.rb
	rb.prepare()
	if !wait {
		if s.rc.Control(rb.nowait) != nil || rb.n == 0 {
			return nil, true
		}
	} else if err := s.rc.Read(rb.fn); err != nil {
		return nil, s.noteReadError(err)
	}
	if rb.errno != 0 {
		switch rb.errno {
		case syscall.EINTR:
		case syscall.EINVAL, syscall.ENOSYS:
			if s.mmsgOn.CompareAndSwap(true, false) {
				// A socket with UDP_GRO set must never be read without
				// cmsg access: disarm it before the portable rung reads.
				if s.groOn.CompareAndSwap(true, false) {
					s.setGROSockopt(false)
				}
				s.logf("mcast: kernel rejected recvmmsg (%v); demoting to per-datagram reads", rb.errno)
			}
		default:
			return nil, s.noteReadError(rb.errno)
		}
		return nil, true
	}
	s.errStreak = 0
	frames := rb.split()
	s.batchedReads.Add(int64(len(frames)))
	return frames, true
}

// readNow is read's portable rung when it does not wait: one datagram
// if the socket holds one.
func (s *SharedReceiver) readNow() ([][]byte, bool) {
	n, err := 0, error(nil)
	if s.rc == nil || s.rc.Control(func(fd uintptr) { n, err = syscall.Read(int(fd), s.buf) }) != nil {
		return nil, true
	}
	s.readSyscalls.Inc()
	if err != nil {
		return nil, true
	}
	s.one[0] = s.buf[:n]
	return s.one[:], true
}

// prepare resets the syscall arrays for one drain. The kernel mutates
// headers in place (namelen, controllen, flags), so every field it
// touches is rewritten each cycle; the cmsg buffers are attached only
// while the GRO rung is live.
func (rb *recvBuf) prepare() {
	rb.n = 0
	rb.errno = 0
	gro := rb.s.groOn.Load()
	for i := 0; i < recvBatch; i++ {
		iov := &rb.iovs[i]
		iov.Base = &rb.bufs[i*maxDatagram]
		iov.SetLen(maxDatagram)

		hdr := &rb.hdrs[i].hdr
		hdr.Name = nil
		hdr.Namelen = 0
		hdr.Iov = iov
		hdr.Iovlen = 1
		if gro {
			c := &rb.ctrls[i]
			*c = groCmsg{}
			hdr.Control = (*byte)(unsafe.Pointer(c))
			hdr.Controllen = uint64(unsafe.Sizeof(*c))
		} else {
			hdr.Control = nil
			hdr.Controllen = 0
		}
		hdr.Flags = 0
		rb.hdrs[i].n = 0
	}
}

// step is the RawConn.Read callback: one recvmmsg attempt per wakeup.
// Returning false parks the goroutine on the netpoller until the socket
// is readable; returning true hands control back to readBatched with
// either a drained batch (n) or a stashed errno. recvmmsg errors only
// when its first datagram fails, so partial success is just a shorter
// batch.
func (rb *recvBuf) step(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&rb.hdrs[0])), recvBatch, msgDontwait, 0, 0)
		rb.s.readSyscalls.Inc()
		if errno != 0 {
			switch errno {
			case syscall.EAGAIN:
				return false
			case syscall.EINTR:
				continue
			default:
				rb.errno = errno
				return true
			}
		}
		rb.n = int(r1)
		return true
	}
}

// split rebuilds the frame views from the drained batch. A message whose
// cmsg names a segment size smaller than its payload is a GRO-coalesced
// super-frame: it is cut back into segment-sized wire frames (a shorter
// final segment allowed, exactly the shape the GSO sender built), in
// order, so downstream dispatch sees the same sequence the wire carried.
// Everything else passes through whole.
func (rb *recvBuf) split() [][]byte {
	frames := rb.frames[:0]
	for i := 0; i < rb.n; i++ {
		b := rb.bufs[i*maxDatagram : i*maxDatagram+int(rb.hdrs[i].n)]
		seg := 0
		if c := &rb.ctrls[i]; rb.hdrs[i].hdr.Controllen >= uint64(syscall.CmsgLen(4)) &&
			c.level == solUDP && c.typ == udpGRO && c.len >= uint64(syscall.CmsgLen(4)) {
			seg = int(c.size)
		}
		if seg > 0 && len(b) > seg {
			nseg := 0
			for len(b) > seg {
				frames = append(frames, b[:seg])
				b = b[seg:]
				nseg++
			}
			frames = append(frames, b)
			nseg++
			rb.s.groSegments.Add(int64(nseg))
		} else {
			frames = append(frames, b)
		}
	}
	rb.frames = frames
	return frames
}
