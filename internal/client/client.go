// Package client is the one-session front of the live Skyscraper
// Broadcasting demo's receiving end. The three service routines of Section
// 3.3 — an Odd Loader, an Even Loader and a Video Player over at most two
// tuners — the loss recovery that lets them survive a lossy channel
// (parity-stripe heals, gap-bitmap NACKs, deadline-bounded unicast repair,
// control reconnects) and the byte verification all live once, in
// internal/viewer, where an audience of thousands and a single set-top box
// are the same cohort code. This package states one viewer (a video, a
// seed, a disk size), runs it there as a one-viewer cohort, and applies
// the session's error policy to what comes back.
package client

import (
	"fmt"

	"skyscraper/internal/trace"
	"skyscraper/internal/viewer"
)

// Config parameterizes one viewing session.
type Config struct {
	// ServerAddr is the server's TCP control address.
	ServerAddr string
	// Video is the catalog index to watch.
	Video int
	// JoinLeadFrac is how early, as a fraction of one unit, a loader
	// sends its join before the broadcast it wants (covers control RTT).
	// Defaults to 0.5.
	JoinLeadFrac float64
	// SlackFrac is the fraction of one unit a chunk may arrive after its
	// scheduled playback before it counts as jitter. Defaults to 0.5.
	SlackFrac float64
	// RepairLagFrac is how long after a chunk's expected arrival, as a
	// fraction of one unit, a loader waits before declaring the chunk a
	// gap and starting its recovery — a NACK when the server offers the
	// ladder, a unicast repair otherwise (absorbs pacing drift and
	// reordering). Defaults to 0.5.
	RepairLagFrac float64
	// DisableRepair turns the loss-recovery path off: missing chunks are
	// never requested from the server and become LostChunks when their
	// playback deadline passes.
	DisableRepair bool
	// DisableNack turns off the multicast-first NACK ladder: gaps go
	// straight to unicast KindRepair round trips. The ladder is on by
	// default whenever the server advertises it (Welcome.NackRepair), so
	// a burst of losses costs one aggregated gap-bitmap NACK and heals
	// off one multicast re-send shared by the whole injured audience.
	DisableNack bool
	// AllowDegraded lets a session complete, with losses and jitter
	// counted in Stats, instead of failing when chunks could not be
	// recovered before their playback deadline. Content-verification
	// errors always fail the session.
	AllowDegraded bool
	// Seed keys the session's deterministic backoff jitter: every repair
	// retry and control reconnect sleeps a full-jitter delay drawn from a
	// substream of this seed, so two clients with different seeds
	// desynchronize their retry schedules instead of re-storming the
	// server in lockstep — while a given seed always reproduces the same
	// schedule.
	Seed uint64
	// MaxBufferBytes, when positive, is the client's disk capacity; the
	// session fails if reception would exceed it. Provision it from the
	// scheme's 60*b*D1*(W-1) bound (in the live demo's units:
	// (W-1)*BytesPerUnit plus one chunk of arrival granularity).
	MaxBufferBytes int64
	// RecvBufBytes sizes the kernel receive buffer of the client's UDP
	// socket (SetReadBuffer). The server's batched egress delivers chunks
	// in deliberate bursts, so the buffer must absorb a whole burst while
	// the loader goroutine is scheduled out. Zero selects
	// mcast.DefaultRecvBufBytes (4 MiB).
	RecvBufBytes int
	// Trace, when non-nil, journals recovery events — gaps, repair round
	// trips, losses, reconnects — on the wall-minutes scale of the
	// broadcast epoch, so a failing chaos run can explain itself.
	Trace *trace.Buffer
	// Logf, when non-nil, receives diagnostic output.
	Logf func(format string, args ...any)
}

// Stats reports a completed session: the one-viewer cohort's result, so
// every chunk-outcome and repair count reads as in viewer.Result, plus the
// session's WaitUnits and Groups.
type Stats = viewer.SessionResult

// Watch runs a full viewing session: handshake, two-loader reception of
// every fragment, loss recovery, byte verification, and jitter accounting.
// It returns when the whole video has been received and its playback
// window has passed. A session that ends degraded returns its Stats
// alongside the error.
func Watch(cfg Config) (*Stats, error) {
	stats, err := viewer.RunSession(viewer.MuxConfig{
		ServerAddr:    cfg.ServerAddr,
		JoinLeadFrac:  cfg.JoinLeadFrac,
		SlackFrac:     cfg.SlackFrac,
		RepairLagFrac: cfg.RepairLagFrac,
		DisableRepair: cfg.DisableRepair,
		DisableNack:   cfg.DisableNack,
		RecvBufBytes:  cfg.RecvBufBytes,
		Logf:          cfg.Logf,
	}, viewer.Session{Video: cfg.Video, Seed: cfg.Seed, MaxBufferBytes: cfg.MaxBufferBytes, Trace: cfg.Trace})
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if stats.ByteErrors > 0 {
		return stats, fmt.Errorf("client: %d byte verification errors", stats.ByteErrors)
	}
	if !cfg.AllowDegraded {
		if stats.LostChunks > 0 {
			return stats, fmt.Errorf("client: %d chunks lost (unrepaired before playback)", stats.LostChunks)
		}
		if stats.LateChunks > 0 {
			return stats, fmt.Errorf("client: jitter: %d chunks arrived after their playback time", stats.LateChunks)
		}
	}
	return stats, nil
}
