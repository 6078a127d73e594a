// Command skyclient joins a running skyserver, receives one full video
// with the paper's two-loader client, verifies every byte, and reports the
// session's latency, buffer and jitter statistics.
//
// Usage:
//
//	skyclient -server 127.0.0.1:PORT -video 0
//	skyclient -server 127.0.0.1:PORT -stats   # the server's status document
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"skyscraper/internal/client"
	"skyscraper/internal/wire"
)

func main() {
	var (
		addr      = flag.String("server", "", "server control address (required)")
		video     = flag.Int("video", 0, "video index to watch")
		verbose   = flag.Bool("v", false, "log protocol details")
		queryFlag = flag.Bool("stats", false, "print the server's status document (the /status JSON) instead of watching")
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
		if err := queryStats(os.Stdout, *addr); err != nil {
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

// queryStats asks the server for its status document — the one GET
// /status serves — and writes it to w as indented JSON.
func queryStats(w io.Writer, addr string) error {
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
	var doc bytes.Buffer
	if err := json.Indent(&doc, m.Stats, "", "  "); err != nil {
		return err
	}
	doc.WriteByte('\n')
	_, err = doc.WriteTo(w)
	return err
}
