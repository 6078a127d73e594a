package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"skyscraper/internal/faults"
	"skyscraper/internal/mcast"
	"skyscraper/internal/metrics"
)

// StatusSnapshot is the server's one operational document: GET /status
// serves it as JSON, and so does the control plane's KindStatsOK reply.
// The hub's egress ledger is embedded, so its keys sit at the top level.
type StatusSnapshot struct {
	// Videos and ChannelsPerVideo describe the broadcast layout.
	Videos           int   `json:"videos"`
	ChannelsPerVideo int   `json:"channelsPerVideo"`
	Width            int64 `json:"width"`
	// SizeUnits are the fragment sizes in D1 units.
	SizeUnits []int64 `json:"sizeUnits"`
	// UnitMillis is the wall duration of one D1 unit.
	UnitMillis float64 `json:"unitMillis"`
	// UptimeMillis is time since the broadcast epoch.
	UptimeMillis float64 `json:"uptimeMillis"`
	mcast.HubStats
	// ControlSessions is the live control-connection count and
	// ControlSessionsPeak its high-water mark — with the virtual-viewer
	// multiplexer, one session can stand for a whole cohort of viewers.
	ControlSessions     int64 `json:"controlSessions"`
	ControlSessionsPeak int64 `json:"controlSessionsPeak"`
	// RepairsServed counts unicast chunk repairs answered; RepairBytes
	// the payload bytes they carried.
	RepairsServed int64 `json:"repairsServed"`
	RepairBytes   int64 `json:"repairBytes"`
	// BusyReplies counts repair requests pushed back with Busy.
	BusyReplies int64 `json:"busyReplies"`
	// NacksServed counts gap-bitmap NACK messages answered; NackResends
	// the multicast re-sends they triggered; NackSuppressed the NACKed
	// chunks absorbed by a re-send already in flight; RepairDatagrams the
	// datagrams the re-sends came to, a re-sent frame's group members
	// counted as an egress shard staged it.
	NacksServed     int64 `json:"nacksServed"`
	NackResends     int64 `json:"nackResends"`
	NackSuppressed  int64 `json:"nackSuppressed"`
	RepairDatagrams int64 `json:"repairDatagrams"`
	// FecGroup echoes the configured parity stripe width (0 when off);
	// ParityFrames/ParityBytes count the stripe's broadcast overhead —
	// the proactive repair the control-plane counters above never see.
	FecGroup     int   `json:"fecGroup,omitempty"`
	ParityFrames int64 `json:"parityFrames,omitempty"`
	ParityBytes  int64 `json:"parityBytes,omitempty"`
	// RepairTokens is the repair budget's current level in bytes, -1 when
	// unlimited.
	RepairTokens int64 `json:"repairTokens"`
	// ShardRestarts counts supervisor restarts after egress shard panics;
	// DriftEvents broadcasts more than one unit behind schedule. The keys
	// keep the names the pacer, the wheel's predecessor, gave them.
	ShardRestarts int64 `json:"pacerRestarts"`
	DriftEvents   int64 `json:"pacerDriftEvents"`
	// EgressShards is how many shard goroutines the wheel runs;
	// EgressWakeups the ticks they released, each staging and releasing
	// every chunk due in it; a wake of the tick source too early to stage
	// is not counted.
	EgressShards  int   `json:"egressShards"`
	EgressWakeups int64 `json:"egressWakeups"`
	// EgressScheduled counts data chunks that fell due on the broadcast
	// grid; EgressStaged those whose group had a listener and were
	// therefore materialised and sent. Staged/Scheduled is the share of
	// the schedule somebody hears — what the egress cost follows.
	EgressScheduled int64 `json:"egressScheduled"`
	EgressStaged    int64 `json:"egressStaged"`
	// EgressTickSource is what the shards wait on between ticks:
	// "timerfd" (grid-exact, through the netpoller) or "timer" (the
	// runtime timer, which an idle process rounds up to the millisecond).
	// EgressWakeLateP50Us/P99Us are quantiles, in microseconds, of how far
	// past its grid instant each shard began releasing its tick — resolved
	// to a power-of-two bucket, interpolated inside it. The tick's budget
	// sits beside them, same units and resolution: EgressWakeLeadUs is how
	// far ahead of the instant the shards currently arm their tick source
	// (the span from the armed instant to the end of staging — wake, build
	// and warm — they have measured, within a quarter of the tick; the
	// largest across shards), EgressStageP50Us how long staging a tick's
	// batch takes — spent before the instant when the lead covers it — and
	// EgressSendP50Us/P99Us how long inside the sender's SendBatch.
	// EgressWarmP50Us is how long the warm that ends a heard tick's stage
	// takes (part of EgressStageP50Us; the hub counts the warms, as
	// egressWarms).
	EgressTickSource    string  `json:"egressTickSource"`
	EgressWakeLateP50Us float64 `json:"egressWakeLateP50Us"`
	EgressWakeLateP99Us float64 `json:"egressWakeLateP99Us"`
	EgressWakeLeadUs    float64 `json:"egressWakeLeadUs"`
	EgressStageP50Us    float64 `json:"egressStageP50Us"`
	EgressWarmP50Us     float64 `json:"egressWarmP50Us"`
	EgressSendP50Us     float64 `json:"egressSendP50Us"`
	EgressSendP99Us     float64 `json:"egressSendP99Us"`
	// Draining reports a server in graceful shutdown.
	Draining bool `json:"draining"`
	// FrameCache reports how many materialised frames found their payload
	// CRC cached (hits) or had to compute it (misses), and the bytes of
	// CRC words held — the cache keeps no frames.
	FrameCache CacheStats `json:"frameCache"`
	// FaultsInjected summarizes the fault injector's activity when a
	// chaos plan is configured; absent otherwise.
	FaultsInjected *faults.Counts `json:"faultsInjected,omitempty"`
	// ControlAddr is the TCP control address clients dial.
	ControlAddr string `json:"controlAddr"`
}

// Status assembles the server's current document. Call it after Start.
func (s *Server) Status() StatusSnapshot {
	sch := s.cfg.Scheme
	var injected *faults.Counts
	if s.inj != nil {
		c := s.inj.Counts()
		injected = &c
	}
	repairTokens := int64(-1)
	if s.repairBudget != nil {
		repairTokens = int64(s.repairBudget.Level(s.clock.now()))
	}
	wakeLate := s.wakeLateness()
	stageTime := s.shardHist(func(sh *wheelShard) *metrics.Log2Histogram { return &sh.stageTime })
	warmTime := s.shardHist(func(sh *wheelShard) *metrics.Log2Histogram { return &sh.warmTime })
	sendTime := s.shardHist(func(sh *wheelShard) *metrics.Log2Histogram { return &sh.sendTime })
	return StatusSnapshot{
		Videos:              sch.Config().Videos,
		ChannelsPerVideo:    sch.K(),
		Width:               sch.Width(),
		SizeUnits:           append([]int64(nil), sch.Sizes()...),
		UnitMillis:          float64(s.cfg.Unit) / float64(time.Millisecond),
		UptimeMillis:        float64(s.since()) / float64(time.Millisecond),
		HubStats:            s.hub.Stats(),
		ControlSessions:     s.controlSessions.Value(),
		ControlSessionsPeak: s.controlSessions.High(),
		RepairsServed:       s.repairs.Value(),
		RepairBytes:         s.repairBytes.Value(),
		BusyReplies:         s.busyReplies.Value(),
		NacksServed:         s.nacksServed.Value(),
		NackResends:         s.nackResends.Value(),
		NackSuppressed:      s.nackSuppressed.Value(),
		RepairDatagrams:     s.repairDatagrams.Value(),
		FecGroup:            s.cfg.FecGroup,
		ParityFrames:        s.parityFrames.Value(),
		ParityBytes:         s.parityBytes.Value(),
		RepairTokens:        repairTokens,
		ShardRestarts:       s.shardRestarts.Value(),
		DriftEvents:         s.driftEvents.Value(),
		EgressShards:        len(s.wheel),
		EgressWakeups:       s.wheelWakeups.Value(),
		EgressScheduled:     s.egressScheduled.Value(),
		EgressStaged:        s.egressStaged.Value(),
		EgressTickSource:    s.EgressTickSource(),
		EgressWakeLateP50Us: float64(wakeLate.Quantile(0.50)) / 1e3,
		EgressWakeLateP99Us: float64(wakeLate.Quantile(0.99)) / 1e3,
		EgressWakeLeadUs:    float64(s.wakeLead()) / 1e3,
		EgressStageP50Us:    float64(stageTime.Quantile(0.50)) / 1e3,
		EgressWarmP50Us:     float64(warmTime.Quantile(0.50)) / 1e3,
		EgressSendP50Us:     float64(sendTime.Quantile(0.50)) / 1e3,
		EgressSendP99Us:     float64(sendTime.Quantile(0.99)) / 1e3,
		Draining:            s.draining.Load(),
		FrameCache:          s.cache.stats(),
		FaultsInjected:      injected,
		ControlAddr:         s.Addr(),
	}
}

// ServeStatus starts an HTTP status endpoint on a loopback ephemeral port,
// returning its base URL. It serves:
//
//	GET /status    the StatusSnapshot as JSON
//	GET /healthz   200 "ok" while the server runs
//
// With Config.EnablePprof it additionally serves the net/http/pprof
// handlers under /debug/pprof/. The endpoint stops when the server is
// closed.
func (s *Server) ServeStatus() (string, error) {
	if s.hub == nil {
		return "", fmt.Errorf("server: ServeStatus before Start")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("server: status listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// A draining server fails its health check so load balancers stop
		// routing new viewers to it while existing sessions wind down.
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.EnablePprof {
		// Registered by hand rather than importing the pprof side effects
		// into http.DefaultServeMux, which this endpoint does not use.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.stop
		_ = srv.Close()
	}()
	return "http://" + ln.Addr().String(), nil
}
