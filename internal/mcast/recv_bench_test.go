package mcast

import (
	"fmt"
	"testing"
)

// benchSharedRecvDrain measures the ingress ladder at a given burst
// size: one SendBatch of burst same-group chunks per iteration, drained
// through the shared receiver on the named rung by subs subscriptions of
// that group. datagrams/readsyscall is the acceptance metric — the
// single-read path pays one syscall per datagram by construction; the
// batched rungs amortize. ns/delivery and B/op show what each further
// subscription of a group costs: one queue handoff, not one copy.
func benchSharedRecvDrain(b *testing.B, burst, subs int, mode string) {
	s, err := NewSharedReceiverConfigured(SharedReceiverConfig{Classify: testClassify})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	switch mode {
	case "single":
		s.SetRecvBatched(false)
	case "recvmmsg":
		if !s.SetRecvBatched(true) {
			b.Skip("recvmmsg rung unavailable on this platform/kernel")
		}
		s.SetGRO(false)
	case "gro":
		if !s.SetRecvBatched(true) || !s.SetGRO(true) {
			b.Skip("GRO rung unavailable on this platform/kernel")
		}
	}
	g := Group{Video: 0, Channel: 0}
	var taps []*Subscription
	for k := 0; k < subs; k++ {
		sub, err := s.Subscribe(g, 2*burst+16, 2048)
		if err != nil {
			b.Fatal(err)
		}
		taps = append(taps, sub)
	}
	hub, err := NewHub()
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	if hub.SetVectorized(true) && mode == "gro" {
		hub.SetGSO(true) // super-frames on the wire, the shape GRO coalesces
	}
	if err := hub.Join(g, s.Addr()); err != nil {
		b.Fatal(err)
	}
	frame := testFrame(g, 1052)
	entries := make([]BatchEntry, burst)
	for i := range entries {
		entries[i] = BatchEntry{Group: g, Frame: frame}
	}
	b.SetBytes(int64(burst * len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hub.SendBatch(entries); err != nil {
			b.Fatal(err)
		}
		for _, sub := range taps {
			for j := 0; j < burst; j++ {
				slot, ok := <-sub.Ready()
				if !ok {
					b.Fatal("subscription closed mid-benchmark")
				}
				sub.Release(slot)
			}
		}
	}
	b.StopTimer()
	datagrams := s.Stats().Delivered / int64(subs)
	b.ReportMetric(float64(datagrams)/b.Elapsed().Seconds(), "datagrams/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Stats().Delivered), "ns/delivery")
	if rs := s.Stats().ReadSyscalls; rs > 0 {
		b.ReportMetric(float64(datagrams)/float64(rs), "datagrams/readsyscall")
	}
	if gs := s.Stats().GROSegments; gs > 0 {
		b.ReportMetric(float64(gs)/float64(b.N), "grosegments/op")
	}
}

// BenchmarkSharedReceiverDrain is the ingress acceptance benchmark:
// 1/8/64-datagram bursts drained through each rung of the ladder by one
// subscription, and by four — about the deliveries per datagram a
// cohort audience sees (skybench's dense_tick measures 4.4). The
// ≥4× syscall-amortization criterion reads mode=single against
// mode=recvmmsg (and mode=gro) at burst=64.
func BenchmarkSharedReceiverDrain(b *testing.B) {
	for _, burst := range []int{1, 8, 64} {
		for _, subs := range []int{1, 4} {
			for _, mode := range []string{"single", "recvmmsg", "gro"} {
				b.Run(fmt.Sprintf("burst=%d/subs=%d/mode=%s", burst, subs, mode), func(b *testing.B) {
					benchSharedRecvDrain(b, burst, subs, mode)
				})
			}
		}
	}
}
