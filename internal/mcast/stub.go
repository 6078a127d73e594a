//go:build !linux || (!amd64 && !arm64)

// Portable build: platforms without the linux fast paths send every
// datagram with its own WriteToUDPAddrPort (writeDestsGeneric) and read
// every datagram with its own ReadFromUDPAddrPort. The hub never arms
// vectorized and the receiver never arms mmsgOn here, so the two fast
// bodies are unreachable; the stubs exist so batch.go and shared.go
// compile everywhere, and the kill-switches have nothing to switch off.
package mcast

import "net/netip"

// gsoCompiled and recvCompiled report at compile time whether this build
// contains the egress and ingress fast paths; tests use them to decide
// what the kill-switches can prove.
const (
	gsoCompiled  = false
	recvCompiled = false
)

type (
	gsoBuf  struct{}
	recvBuf struct{}
)

func (h *Hub) initVectorized() {}
func (h *Hub) initGSO()        {}
func (h *Hub) initWarm()       {}
func (h *Hub) closeSink()      {}

// Warm does nothing here: the hub opens no sink to warm against.
func (h *Hub) Warm() {}

// SetVectorized and SetGSO report false: neither can be enabled here.
func (h *Hub) SetVectorized(on bool) bool { return false }
func (h *Hub) SetGSO(on bool) bool        { return false }

func (h *Hub) writeDestsStaged(*batchBuf, groupMap[netip.AddrPort], []BatchEntry) error {
	panic("mcast: sendmmsg stager invoked without platform support")
}

func (s *SharedReceiver) initRecv() {}
func (s *SharedReceiver) freeRecv() {}

// SetRecvBatched and SetGRO report false: neither can be enabled here.
func (s *SharedReceiver) SetRecvBatched(on bool) bool { return false }
func (s *SharedReceiver) SetGRO(on bool) bool         { return false }

func (s *SharedReceiver) readBatched() bool {
	panic("mcast: batched receive invoked without platform support")
}
