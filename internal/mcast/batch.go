// Batched fan-out: the hub's egress.
//
// The per-chunk cost model of the paper — server load proportional to
// channels, not viewers — breaks down if every chunk still costs one
// write syscall per group member. SendBatch restores it: the caller hands
// over every chunk due in one scheduling tick, the hub expands them
// against the membership snapshot into a flat destination vector, and one
// of two writers puts that vector on the wire: the sendmmsg stager
// (gso_linux.go: up to sendmmsgBatch messages per syscall, each a run of
// one address's frames — a GSO super-frame while the kernel takes them, a
// plain datagram otherwise — with the addresses owed the fewest frames
// sent first) or writeDestsGeneric, one write per datagram in entry
// order, where sendmmsg is unavailable or disabled and as the reference
// the stager is tested against. Send is a batch of one. Destination vectors
// and the syscall arrays behind them are pooled, so the steady-state path
// allocates nothing.
package mcast

import (
	"fmt"
	"net/netip"
	"sync"
)

// NoSendmmsgEnv, when set to any non-empty value before the hub is
// created, disables the sendmmsg fast path so every datagram goes through
// the portable WriteToUDPAddrPort fallback. CI sets it to exercise the
// fallback on linux; it has no effect on platforms without the fast path.
const NoSendmmsgEnv = "SKYSCRAPER_NO_SENDMMSG"

// NoGSOEnv, when set to any non-empty value before the hub is created,
// keeps the stager's runs at one frame, so batches go out as individual
// datagrams through sendmmsg (or the portable fallback). The decline is
// logged once and counted in GSOFallbacks. It has no effect on platforms
// without the fast path.
const NoGSOEnv = "SKYSCRAPER_NO_GSO"

// NoRecvmmsgEnv, when set to any non-empty value before a shared
// receiver is created, disables the recvmmsg ingress rung so every
// datagram is read with its own ReadFromUDPAddrPort — the ingress mirror
// of NoSendmmsgEnv. It has no effect on platforms without the fast path.
const NoRecvmmsgEnv = "SKYSCRAPER_NO_RECVMMSG"

// NoGROEnv, when set to any non-empty value before a shared receiver is
// created, disables the UDP_GRO coalesced-receive rung so super-frames
// arrive pre-segmented by the kernel — the ingress mirror of NoGSOEnv.
// The decline is logged once and counted in GROFallbacks. It has no
// effect on platforms without the fast path.
const NoGROEnv = "SKYSCRAPER_NO_GRO"

// BatchEntry is one chunk to broadcast: the frame and the group whose
// members should receive it.
type BatchEntry struct {
	Group Group
	Frame []byte
}

// BatchSender is the batched fan-out a tick-driven egress engine wants:
// all chunks due in one tick delivered with one call. The Hub implements
// it; the engine's tests stand a recording stub in its place.
type BatchSender interface {
	// SendBatch delivers every entry's frame to every current member of
	// its group, returning the number of datagrams written. Delivery is
	// best-effort per destination, like Send.
	SendBatch(entries []BatchEntry) (int, error)
}

// dest is one expanded (datagram, destination) pair of a batch.
type dest struct {
	ap     netip.AddrPort
	frame  []byte
	group  Group
	failed bool
}

// batchBuf is the pooled working state of one SendBatch call: the
// expanded destination vector plus the stager's reusable syscall arrays.
type batchBuf struct {
	ds    []dest
	stage *gsoBuf
}

var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// SendBatch delivers every entry's frame to every current member of its
// group — the whole tick's egress in one call — returning how many
// datagrams were written. Entries whose groups are empty cost nothing;
// a batch that expands to zero destinations succeeds trivially.
//
// SendBatch reads the membership snapshot without locking, allocates
// nothing steady-state, and is best-effort per destination: a failing
// member is skipped and counted (and eventually evicted), the rest of the
// batch is still delivered, and failures aggregate into the returned
// error.
func (h *Hub) SendBatch(entries []BatchEntry) (int, error) {
	if h.closed.Load() {
		return 0, fmt.Errorf("mcast: hub closed")
	}
	m := h.members.load()
	bb := batchPool.Get().(*batchBuf)
	var first error
	if h.vectorized {
		first = h.writeDestsStaged(bb, m, entries)
	} else {
		ds := bb.ds[:0]
		for ei := range entries {
			g := entries[ei].Group
			for _, ap := range m.list(g) {
				ds = append(ds, dest{ap: ap, frame: entries[ei].Frame, group: g})
			}
		}
		bb.ds = ds
		first = h.writeDestsGeneric(ds)
	}
	total := len(bb.ds)
	if total > 0 {
		h.batches.Inc()
	}
	n, nfail := h.settleDests(bb.ds)
	batchPool.Put(bb)
	if nfail > 0 {
		return n, fmt.Errorf("mcast: %d of %d batched sends failed: %w", nfail, total, first)
	}
	return n, nil
}

// settleDests is the accounting tail of a batch, whichever writer carried
// it: per-destination failure/eviction notes plus the
// sent/sentBytes/batchedBytes/failed ledger counters.
func (h *Hub) settleDests(ds []dest) (n, nfail int) {
	var bytes int64
	for i := range ds {
		d := &ds[i]
		if d.failed {
			nfail++
			h.noteFailure(d.group, d.ap)
			continue
		}
		n++
		bytes += int64(len(d.frame))
		if h.nfailing.Load() != 0 {
			h.noteSuccess(d.group, d.ap)
		}
	}
	if n > 0 {
		h.sent.Add(int64(n))
		h.sentBytes.Add(bytes)
		h.batchedBytes.Add(bytes)
	}
	if nfail > 0 {
		h.failed.Add(int64(nfail))
	}
	return n, nfail
}

// writeDestsGeneric is the portable destination-vector writer: one
// WriteToUDPAddrPort per datagram, marking failed destinations in place
// and returning the first error. It is the whole story on platforms
// without sendmmsg and the explicit fallback everywhere else, and its
// delivery semantics define what the stager must match.
func (h *Hub) writeDestsGeneric(ds []dest) error {
	var first error
	for i := range ds {
		h.syscalls.Inc()
		if _, err := h.conn.WriteToUDPAddrPort(ds[i].frame, ds[i].ap); err != nil {
			ds[i].failed = true
			if first == nil {
				first = err
			}
		}
	}
	return first
}
