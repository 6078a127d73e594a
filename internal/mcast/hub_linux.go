//go:build linux && (amd64 || arm64)

// The sendmmsg(2) capability. One syscall puts up to sendmmsgBatch
// messages on the wire, so a chunk fanned out to a large group — or a
// whole scheduling tick's worth of chunks — costs ceil(n/64) kernel
// crossings instead of n. What is staged into those messages, and the one
// call site of the syscall, is gso_linux.go.
//
// This file is restricted to linux/{amd64,arm64}: the stdlib syscall
// package's Msghdr.Iovlen is a uint64 only on those targets (there is no
// SetIovlen portability shim outside x/sys, which this repo does not
// depend on), and the sendmmsg syscall number is hardcoded per arch in
// hub_linux_{amd64,arm64}.go because the frozen stdlib tables predate the
// syscall. Every other platform compiles stub.go instead.
package mcast

import (
	"os"
	"syscall"
)

// sendmmsgBatch is the most messages handed to one sendmmsg call. 64
// matches UIO_MAXIOV-scale batching used by DNS servers and QUIC stacks:
// large enough that the syscall cost amortizes to noise, small enough
// that the per-buffer sockaddr/iovec arrays stay a few KiB.
const sendmmsgBatch = 64

// mmsghdr mirrors C's struct mmsghdr: the msghdr plus the kernel's
// returned datagram length. The trailing pad matches the C struct's
// 8-byte alignment (sizeof == 64 on both supported targets).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// initVectorized arms the sendmmsg path: it caches the socket's RawConn
// and flips vectorized on, unless NoSendmmsgEnv is set (the CI toggle
// that forces the portable fallback on linux so both paths stay tested).
func (h *Hub) initVectorized() {
	if os.Getenv(NoSendmmsgEnv) != "" {
		return
	}
	rc, err := h.conn.SyscallConn()
	if err != nil {
		return
	}
	h.rc = rc
	h.vectorized = true
}
