// Command skyclient joins a running skyserver, receives one full video
// with the paper's two-loader client, verifies every byte, and reports the
// session's latency, buffer and jitter statistics.
//
// Usage:
//
//	skyclient -server 127.0.0.1:PORT -video 0
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/wire"
)

func main() {
	var (
		addr      = flag.String("server", "", "server control address (required)")
		video     = flag.Int("video", 0, "video index to watch")
		verbose   = flag.Bool("v", false, "log protocol details")
		queryFlag = flag.Bool("stats", false, "query server stats instead of watching")
		rcvbuf    = flag.Int("rcvbuf", 0,
			"kernel receive-buffer bytes per tuner socket (SetReadBuffer); the server's batched egress delivers in bursts, so size this to absorb one (0 = 4 MiB default)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "skyclient: -server is required")
		flag.Usage()
		os.Exit(2)
	}
	if *queryFlag {
		if err := queryStats(*addr); err != nil {
			fmt.Fprintln(os.Stderr, "skyclient:", err)
			os.Exit(1)
		}
		return
	}
	cfg := client.Config{ServerAddr: *addr, Video: *video, RecvBufBytes: *rcvbuf}
	if *verbose {
		cfg.Logf = log.Printf
	}
	stats, err := client.Watch(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "skyclient:", err)
		os.Exit(1)
	}
	fmt.Printf("video %d received and verified\n", *video)
	fmt.Printf("  wait            %.3f units of D1\n", stats.WaitUnits)
	fmt.Printf("  bytes           %d (all content-verified)\n", stats.Bytes)
	fmt.Printf("  groups          %d\n", stats.Groups)
	fmt.Printf("  max buffer      %d bytes\n", stats.MaxBufferBytes)
	fmt.Printf("  late chunks     %d\n", stats.LateChunks)
	fmt.Printf("  duplicates      %d\n", stats.DuplicateChunks)
	// Stripe ledger — absent when the server broadcasts no parity.
	if stats.FecHeals > 0 || stats.StripeDefeats > 0 {
		fmt.Printf("  fec heals       %d (zero control round trips)\n", stats.FecHeals)
		fmt.Printf("  stripe defeats  %d (escalated to the repair ladder)\n", stats.StripeDefeats)
	}
}

// queryStats asks the server for its operational snapshot.
func queryStats(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := wire.WriteControl(conn, &wire.Control{Kind: wire.KindStats}); err != nil {
		return err
	}
	m, err := wire.ReadControl(bufio.NewReader(conn))
	if err != nil {
		return err
	}
	if m.Kind != wire.KindStatsOK || m.Stats == nil {
		return fmt.Errorf("unexpected reply %q: %s", m.Kind, m.Error)
	}
	fmt.Printf("uptime          %v\n", time.Duration(m.Stats.UptimeNanos).Round(time.Millisecond))
	fmt.Printf("channels        %d\n", m.Stats.Channels)
	fmt.Printf("memberships     %d\n", m.Stats.Members)
	fmt.Printf("datagrams sent  %d\n", m.Stats.DatagramsSent)
	// Egress ledger — absent (zero) when talking to an older server.
	if m.Stats.EgressShards > 0 {
		fmt.Printf("egress shards   %d\n", m.Stats.EgressShards)
		fmt.Printf("egress wakeups  %d\n", m.Stats.EgressWakeups)
	}
	if m.Stats.EgressSyscalls > 0 {
		fmt.Printf("egress batches  %d (%d bytes batched)\n", m.Stats.EgressBatches, m.Stats.BatchedBytes)
		fmt.Printf("send syscalls   %d (%.1f datagrams/syscall)\n",
			m.Stats.EgressSyscalls,
			float64(m.Stats.DatagramsSent)/float64(m.Stats.EgressSyscalls))
	}
	// Super-frame rows — absent (zero) when the kernel lacks the fast
	// path or the server predates it.
	if m.Stats.Superframes > 0 {
		fmt.Printf("superframes     %d carrying %d segments (%.1f segments/superframe)\n",
			m.Stats.Superframes, m.Stats.GSOSegments,
			float64(m.Stats.GSOSegments)/float64(m.Stats.Superframes))
	}
	if m.Stats.GSOFallbacks > 0 {
		fmt.Printf("gso fallbacks   %d\n", m.Stats.GSOFallbacks)
	}
	// Parity stripe row — absent (zero) when FEC is off or the server
	// predates it.
	if m.Stats.ParityFrames > 0 {
		fmt.Printf("parity frames   %d (%d bytes) broadcast proactively\n",
			m.Stats.ParityFrames, m.Stats.ParityBytes)
	}
	// Ingress ladder rows — absent (zero) on a pure egress server or one
	// that predates the receive-side ledger.
	if m.Stats.ReadSyscalls > 0 {
		fmt.Printf("read syscalls   %d (%.1f datagrams/readsyscall)\n",
			m.Stats.ReadSyscalls,
			float64(m.Stats.BatchedReads)/float64(m.Stats.ReadSyscalls))
	}
	if m.Stats.GroSegments > 0 {
		fmt.Printf("gro segments    %d split from coalesced super-frames\n", m.Stats.GroSegments)
	}
	if m.Stats.GroFallbacks > 0 {
		fmt.Printf("gro fallbacks   %d\n", m.Stats.GroFallbacks)
	}
	if m.Stats.ReadErrors > 0 {
		fmt.Printf("read errors     %d (backoff-throttled)\n", m.Stats.ReadErrors)
	}
	return nil
}
