package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"skyscraper/internal/server"
	"skyscraper/internal/viewer"
)

// The orchestrator re-execs itself once per role so CPU and RSS are
// attributable per role. Each child reads its generated configuration as
// one JSON line on stdin and answers on stdout in JSON lines; it never
// sees the workload seed. A child whose stdin closes exits: an
// orchestrator that dies cannot leave one behind.

// Rusage is a process's own resource usage.
type Rusage struct {
	UserNs    int64 `json:"userNs"`
	SysNs     int64 `json:"sysNs"`
	MaxRSSKiB int64 `json:"maxRssKiB"`
}

// SelfRusage reads RUSAGE_SELF.
func SelfRusage() Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return Rusage{} // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return Rusage{UserNs: ru.Utime.Nano(), SysNs: ru.Stime.Nano(), MaxRSSKiB: int64(ru.Maxrss)}
}

// ServerChildConfig is the server role's input.
type ServerChildConfig struct {
	Spec      LiveSpec `json:"spec"`
	FaultSeed uint64   `json:"faultSeed"`
	Trace     bool     `json:"trace"` // record spans, serve pprof
}

// ServerReady is the server role's first answer.
type ServerReady struct {
	Addr      string  `json:"addr"`
	StatusURL string  `json:"statusUrl"`
	StartMs   float64 `json:"startMs"` // server.New + Start + ServeStatus
}

// ServerFinal is the server role's last answer, after Close.
type ServerFinal struct {
	Spans []Span `json:"spans,omitempty"`
}

// RunServerRole is the `-role server` child: build the server from the
// generated config, report where it listens, answer "rusage" requests,
// and close on "stop" (or a closed stdin).
func RunServerRole(in io.Reader, out io.Writer) error {
	lines := bufio.NewScanner(in)
	lines.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var cfg ServerChildConfig
	if !lines.Scan() {
		return fmt.Errorf("server role: no config on stdin: %v", lines.Err())
	}
	if err := json.Unmarshal(lines.Bytes(), &cfg); err != nil {
		return fmt.Errorf("server role: config: %w", err)
	}
	enc := json.NewEncoder(out)
	var rec *Recorder
	if cfg.Trace {
		rec = NewRecorder("server")
	}

	sch, err := Scheme(cfg.Spec.Videos, cfg.Spec.Channels, cfg.Spec.Width)
	if err != nil {
		return err
	}
	scfg := server.Config{
		Scheme:       sch,
		Unit:         cfg.Spec.Unit,
		BytesPerUnit: cfg.Spec.BytesPerUnit,
		ChunkBytes:   cfg.Spec.ChunkBytes,
		FecGroup:     cfg.Spec.FecGroup,
		FecMode:      cfg.Spec.FecMode,
		EnablePprof:  cfg.Trace,
	}
	if f := cfg.Spec.Faults; f != nil {
		fp := f.Plan(cfg.FaultSeed, cfg.Spec.ChunkBytes)
		scfg.Faults = &fp
	}
	began := time.Now()
	sp := rec.Start("server.New", "server", 0)
	srv, err := server.New(scfg)
	rec.End(sp)
	if err != nil {
		return err
	}
	sp = rec.Start("server.Start", "server", 0)
	err = srv.Start()
	rec.End(sp)
	if err != nil {
		return err
	}
	defer srv.Close()
	sp = rec.Start("server.ServeStatus", "server", 0)
	statusURL, err := srv.ServeStatus()
	rec.End(sp)
	if err != nil {
		return err
	}
	if err := enc.Encode(ServerReady{Addr: srv.Addr(), StatusURL: statusURL,
		StartMs: float64(time.Since(began)) / 1e6}); err != nil {
		return err
	}
	for lines.Scan() {
		switch cmd := lines.Text(); cmd {
		case "rusage":
			if err := enc.Encode(SelfRusage()); err != nil {
				return err
			}
		case "stop":
			sp = rec.Start("server.Close", "server", 0)
			srv.Close()
			rec.End(sp)
			return enc.Encode(ServerFinal{Spans: rec.Spans()})
		default:
			return fmt.Errorf("server role: unknown command %q", cmd)
		}
	}
	return lines.Err() // stdin closed: the deferred Close runs
}

// AudienceChildConfig is the audience role's input: one wave.
type AudienceChildConfig struct {
	ServerAddr    string  `json:"serverAddr"`
	EpochUnixNano int64   `json:"epochUnixNano"`
	UnitNanos     int64   `json:"unitNanos"`
	Viewers       int     `json:"viewers"`
	Videos        int     `json:"videos"`
	SpreadUnits   int     `json:"spreadUnits"`
	SlackFrac     float64 `json:"slackFrac"` // the viewers' patience, in units (see Patience)
	RepairLagFrac float64 `json:"repairLagFrac"`
	Slot          int64   `json:"slot"`              // the unit the wave is admitted in
	Seed          uint64  `json:"seed"`              // the mux seed, derived from the workload seed
	TraceID       string  `json:"traceId,omitempty"` // set on a traced run
}

// WaveReport is one audience wave: a viewer.Mux run to completion.
type WaveReport struct {
	Result    *viewer.Result `json:"result,omitempty"`
	Err       string         `json:"err,omitempty"`
	AdmitMs   float64        `json:"admitMs"`   // viewer.NewMux: dial + handshake
	LagMs     float64        `json:"lagMs"`     // how long after its slot the wave was admitted
	StartUnit int64          `json:"startUnit"` // the unit it was phase-locked to
	CPU       Rusage         `json:"cpu"`       // user/sys spent on the wave (NewMux + Run)
}

// AudienceFinal is the audience role's only answer.
type AudienceFinal struct {
	Wave  WaveReport `json:"wave"`
	Spans []Span     `json:"spans,omitempty"`
}

// RunAudienceRole is the `-role audience` child: one process holding one
// viewer.Mux (one UDP socket, one repair worker) for one wave.
func RunAudienceRole(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("audience role: no config on stdin: %w", err)
	}
	var cfg AudienceChildConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fmt.Errorf("audience role: config: %w", err)
	}
	var done atomic.Bool
	go func() {
		_, _ = io.Copy(io.Discard, r) // returns when the orchestrator closes the pipe or dies
		if !done.Load() {
			os.Exit(3)
		}
	}()
	var rec *Recorder
	if cfg.TraceID != "" {
		rec = NewRecorder("audience")
	}
	final := AudienceFinal{Wave: admitWave(cfg, rec)}
	final.Spans = rec.Spans()
	done.Store(true) // the orchestrator closes stdin once it has the answer
	return json.NewEncoder(out).Encode(final)
}

// admitWave admits one wave phase-locked to the broadcast grid. admit() keys
// cohorts on wall time since the epoch, so Run is entered admitPhase into
// a unit: the same seed then always yields the same cohorts. A wave that
// misses its slot takes the next unit at the same phase and reports the
// lag.
func admitWave(cfg AudienceChildConfig, rec *Recorder) WaveReport {
	epoch, unit, slot, traceID := time.Unix(0, cfg.EpochUnixNano), time.Duration(cfg.UnitNanos), cfg.Slot, cfg.TraceID
	rep := WaveReport{}
	cpu0 := SelfRusage()
	began := time.Now()
	sp := rec.Start("viewer.NewMux", traceID, 0)
	mux, err := viewer.NewMux(viewer.MuxConfig{
		ServerAddr:    cfg.ServerAddr,
		Viewers:       cfg.Viewers,
		Videos:        cfg.Videos,
		SpreadUnits:   float64(cfg.SpreadUnits),
		Seed:          cfg.Seed,
		Workers:       1,
		JoinLeadFrac:  JoinLeadFrac,
		SlackFrac:     cfg.SlackFrac,
		RepairLagFrac: cfg.RepairLagFrac,
	})
	rec.End(sp)
	rep.AdmitMs = float64(time.Since(began)) / 1e6
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	// Wake admitPhase into a unit; a wake that overslept a fifth of a unit
	// (a descheduled process, a paused VM) would shift the bins, so it takes
	// the next unit instead.
	at := func(u int64) time.Time { return epoch.Add(time.Duration((float64(u) + admitPhase) * float64(unit))) }
	rep.StartUnit = slot
	for {
		if now := time.Now(); now.After(at(rep.StartUnit)) {
			rep.StartUnit = int64(math.Ceil(float64(now.Sub(epoch))/float64(unit) - admitPhase))
		}
		time.Sleep(time.Until(at(rep.StartUnit)))
		if time.Since(at(rep.StartUnit)) < unit/5 {
			break
		}
	}
	rep.LagMs = float64(at(rep.StartUnit).Sub(at(slot))) / 1e6
	sp = rec.Start("viewer.Mux.Run", traceID, 0)
	res, err := mux.Run()
	rec.End(sp)
	rep.Result = res
	if err != nil {
		rep.Err = err.Error()
	}
	cpu1 := SelfRusage()
	rep.CPU = Rusage{UserNs: cpu1.UserNs - cpu0.UserNs, SysNs: cpu1.SysNs - cpu0.SysNs}
	return rep
}
