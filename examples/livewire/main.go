// Livewire: the whole protocol over real sockets. Starts an in-process
// broadcast server (loopback UDP data, TCP control), then runs three
// clients that arrive at different times, each receiving and
// byte-verifying a complete video with the paper's two-loader design.
// Video time is compressed: one D1 unit = 40 ms, so a full "two-hour"
// playback takes under a second.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"skyscraper"
)

func main() {
	// Two videos, five channels each, width 2: fragments 1,2,2,2,2.
	cfg := skyscraper.Config{ServerMbps: 1.5 * 10, Videos: 2, LengthMin: 120, RateMbps: 1.5}
	sb, err := skyscraper.New(cfg, 2)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := skyscraper.NewLiveServer(skyscraper.LiveServerConfig{
		Scheme:       sb,
		Unit:         60 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	fmt.Println("== Live Skyscraper Broadcasting over loopback UDP ==")
	fmt.Printf("server     %s, %d videos x %d channels, fragments %v\n",
		srv.Addr(), cfg.Videos, sb.K(), sb.Sizes())
	fmt.Printf("unit       60ms of wall time per D1 (a %d-unit video plays in %v)\n",
		sb.TotalUnits(), time.Duration(sb.TotalUnits())*60*time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 70 * time.Millisecond) // staggered arrivals
			stats, err := skyscraper.WatchLive(skyscraper.LiveClientConfig{
				ServerAddr:   srv.Addr(),
				Video:        i % 2,
				JoinLeadFrac: 0.9,
				SlackFrac:    1.0,
			})
			if err != nil {
				log.Fatalf("client %d: %v", i, err)
			}
			fmt.Printf("client %d   video %d: %d bytes verified, wait %.2f units, "+
				"max buffer %d bytes, late chunks %d\n",
				i, i%2, stats.Bytes, stats.WaitUnits, stats.MaxBufferBytes, stats.LateChunks)
		}()
	}
	wg.Wait()
	fmt.Println("all clients received jitter-free, byte-exact video from shared broadcasts")
	fmt.Printf("server datagrams sent: %d (independent of audience size)\n", srv.Status().DatagramsSent)
}
