// Command skyserver runs the live Skyscraper Broadcasting server: M videos
// of synthetic content, K channels each, broadcast over loopback UDP with
// a TCP control port for clients (see cmd/skyclient).
//
// Usage:
//
//	skyserver -M 2 -K 6 -W 5 -unit 50ms
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/server"
	"skyscraper/internal/vod"
)

func main() {
	var (
		videos   = flag.Int("M", 2, "number of videos to broadcast")
		channels = flag.Int("K", 6, "channels per video")
		width    = flag.Int64("W", 5, "skyscraper width")
		unit     = flag.Duration("unit", 50*time.Millisecond, "wall-clock duration of one D1 unit")
		bpu      = flag.Int("bytes-per-unit", 4096, "payload bytes per unit")
		chunk    = flag.Int("chunk", 1024, "chunk payload bytes (must divide bytes-per-unit)")
		fecGroup = flag.Int("fec-group", 0,
			"proactive parity stripe group size G: one parity frame per G data chunks, ~1/G bandwidth overhead (0 = off)")
		status   = flag.Bool("status", true, "serve an HTTP /status endpoint")
		pprofOn  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the status endpoint")
		repairBW = flag.Int64("repair-bandwidth", 0,
			"repair-plane admission budget in bytes/sec (0 = unlimited); size it with unicast.RepairBandwidthBytes")
		drainTO = flag.Duration("drain-timeout", 10*time.Second,
			"how long a SIGTERM/SIGINT drain waits for in-flight control handlers before forcing shutdown")
		sndbuf = flag.Int("sndbuf", 4<<20,
			"kernel send-buffer bytes for the broadcast socket (SetWriteBuffer); batched egress bursts up to 64 datagrams per syscall, and the default 4 MiB absorbs such bursts at every tested scale (0 = OS default)")
		rcvbuf = flag.Int("rcvbuf", 0,
			"kernel receive-buffer bytes for the broadcast socket (SetReadBuffer); only error traffic lands there (0 = OS default)")
	)
	flag.Parse()
	if err := run(*videos, *channels, *width, *unit, *bpu, *chunk, *fecGroup, *status, *pprofOn, *repairBW, *drainTO, *sndbuf, *rcvbuf); err != nil {
		fmt.Fprintln(os.Stderr, "skyserver:", err)
		os.Exit(1)
	}
}

func run(videos, channels int, width int64, unit time.Duration, bpu, chunk, fecGroup int, status bool, pprofOn bool, repairBW int64, drainTO time.Duration, sndbuf, rcvbuf int) error {
	cfg := vod.Config{
		ServerMbps: 1.5 * float64(videos*channels),
		Videos:     videos,
		LengthMin:  120,
		RateMbps:   1.5,
	}
	sch, err := core.New(cfg, width)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Scheme:          sch,
		Unit:            unit,
		BytesPerUnit:    bpu,
		ChunkBytes:      chunk,
		FecGroup:        fecGroup,
		EnablePprof:     pprofOn,
		RepairBandwidth: repairBW,
		SendBufBytes:    sndbuf,
		RecvBufBytes:    rcvbuf,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("skyserver: control address %s\n", srv.Addr())
	if status {
		url, err := srv.ServeStatus()
		if err != nil {
			return err
		}
		fmt.Printf("skyserver: status at %s/status\n", url)
	}
	fmt.Printf("skyserver: %d videos x %d channels, fragments %v (units of %v)\n",
		videos, sch.K(), sch.Sizes(), unit)
	fmt.Println("skyserver: ctrl-C to drain and stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop accepting, send bye to connected clients
	// (they finish on broadcast data alone), wait for in-flight control
	// handlers up to the deadline, then tear the broadcast down.
	fmt.Printf("skyserver: draining (up to %v)\n", drainTO)
	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("skyserver: drained")
	return nil
}
