package harness

import (
	"encoding/json"
	"strings"
)

// Applies says which workloads a metric is measured on.
type Applies uint8

const (
	OnPaced Applies = 1 << iota
	OnDense
	OnLossy
	OnSim
	OnLive = OnPaced | OnDense | OnLossy
	OnAll  = OnLive | OnSim
)

func appliesBit(workload string) Applies {
	switch workload {
	case PacedPaper:
		return OnPaced
	case DenseTick:
		return OnDense
	case LossyRepair:
		return OnLossy
	case SimFigures:
		return OnSim
	}
	return 0
}

// On reports whether the metric is measured on workload.
func (a Applies) On(workload string) bool { return a&appliesBit(workload) != 0 }

func (a Applies) String() string {
	switch a {
	case OnAll:
		return "all"
	case OnLive:
		return "live"
	}
	var names []string
	for _, w := range Workloads {
		if a.On(w.Name) {
			names = append(names, w.Name)
		}
	}
	return strings.Join(names, ", ")
}

// MetricDef names one metric: the fixed vocabulary every later issue uses.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the regression bound: the share of the baseline median by
	// which the metric may worsen (relative), or, for a share that is 0
	// when healthy, an absolute amount (AbsBound).
	Bound    float64
	AbsBound bool
	// Ungated keeps an end-to-end metric out of BENCHMARK.json's bounded
	// list (it still is one under `skybench -compare`): its run-to-run
	// spread on the seed commit is too close to the widest bound the
	// driver allows.
	Ungated bool
	Applies Applies
	// Traced marks a per-layer metric only the traced run measures (layer
	// probes and span statistics); Optional one a report may leave out.
	Traced   bool
	Optional bool
	// Def is the glossary definition; Moves the end-to-end metric (and
	// workload) a per-layer metric is expected to move.
	Def   string
	Moves string
}

// EndToEnd is what a user of the system sees. The bounds follow the A/A
// spread measured on the seed commit (README.md has the table): about
// three times the worst spread seen, never above 25 %.
//
// BENCHMARK.json bounds fewer of them than `skybench -compare` does. Its
// end-to-end metrics must be non-zero on every gated workload and repeat
// within their bound across hours on a shared VM, so: failed_share and
// unhealed_chunk_share (0 when healthy) reach the driver as
// attempted/failed and as per-layer e2e.* entries; sim_clients_per_s
// exists only on sim_figures; and the two CPU costs and the p90 lateness,
// whose medians drifted by up to 45 % between identical sets taken hours
// apart on the seed host (memory-bound code slows with the neighbours),
// are per-layer e2e.* entries too. They are meant to be compared side by
// side, alternating baseline and candidate, which is what -compare is for.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Applies: OnAll,
		Def: "server child spawn → first probe-verified on-grid datagram (sim: workload start → first client simulated); median of 9 cold boots per run"},
	{Name: "delivery_lateness_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Applies: OnLive,
		Def: "probe receive time − grid instant of the datagram, median over schedule datagrams (re-sends, duplicates and reordered frames excluded; on lossy_repair against the slipped schedule, see probe.schedule_slip_ms)"},
	{Name: "delivery_lateness_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Ungated: true, Applies: OnLive,
		Def: "same, 90th percentile (p99 is per-layer probe.lateness_p99_ms)"},
	{Name: "start_latency_p95_units", Unit: "units", Better: "lower", Bound: 0.10, Applies: OnLive,
		Def: "probe session due → first verified chunk of a fragment-1 broadcast that began after the join ack (less that chunk's offset into the broadcast), ÷ unit; p95 (paper bound: ≤ 1 + control round trips)"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.005, AbsBound: true, Applies: OnAll,
		Def: "sessions degraded (any late or lost chunk) or errored ÷ sessions attempted — audience, probe and sentinel; sim: clients violating a closed form ÷ clients"},
	{Name: "unhealed_chunk_share", Unit: "ratio", Better: "lower", Bound: 0.005, AbsBound: true, Applies: OnLive,
		Def: "(lost + late viewer-chunks) ÷ viewer-chunks expected"},
	{Name: "server_cpu_ns_per_datagram", Unit: "ns", Better: "lower", Bound: 0.25, Ungated: true, Applies: OnLive,
		Def: "server children's user+sys CPU over their windows ÷ datagramsSent delta"},
	{Name: "audience_cpu_ns_per_delivery", Unit: "ns", Better: "lower", Bound: 0.25, Ungated: true, Applies: OnLive,
		Def: "audience children's user+sys CPU over their waves ÷ viewer.Result.Datagrams"},
	{Name: "deliveries_per_s", Unit: "1/s", Better: "higher", Bound: 0.15, Applies: OnLive,
		Def: "viewer.Result.Datagrams ÷ window; pinned by the schedule while healthy, falls with ring drops"},
	{Name: "sim_clients_per_s", Unit: "1/s", Better: "higher", Bound: 0.15, Applies: OnSim,
		Def: "simulated clients ÷ wall time over the 8 sweeps; median of the rounds that fit the window"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.20, Applies: OnAll,
		Def: "largest sum of a wave's server and audience children's max RSS (sim: the process)"},
}

const (
	mvSetup    = "setup_s"
	mvSrvCPU   = "server_cpu_ns_per_datagram"
	mvAudCPU   = "audience_cpu_ns_per_delivery"
	mvLate     = "delivery_lateness_p90_ms, failed_share"
	mvStart    = "start_latency_p95_units"
	mvUnhealed = "unhealed_chunk_share"
	mvSim      = "sim_clients_per_s"
)

// PerLayer is the per-module view, named <module>.<metric>. None has a
// bound; each names the end-to-end metric it should move.
var PerLayer = []MetricDef{
	// server
	{Name: "server.start_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: mvSetup, Def: "server.New + Start + ServeStatus in the server child"},
	{Name: "server.cpu_user_ns_per_datagram", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvSrvCPU, Def: "user share of server_cpu_ns_per_datagram"},
	{Name: "server.cpu_sys_ns_per_datagram", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvSrvCPU, Def: "system share of server_cpu_ns_per_datagram"},
	{Name: "server.wakeups_per_s", Unit: "1/s", Better: "lower", Applies: OnLive, Moves: mvSrvCPU + " on paced_paper", Def: "egressWakeups delta ÷ window"},
	{Name: "server.datagrams_per_wakeup", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvSrvCPU + " (wakeup-bound on paced_paper, flat on dense_tick)", Def: "datagramsSent delta ÷ egressWakeups delta"},
	{Name: "server.framecache_hit_ratio", Unit: "ratio", Better: "higher", Applies: OnLive, Moves: mvSrvCPU, Def: "frame-cache hits ÷ lookups over the window"},
	{Name: "server.framecache_resident_mib", Unit: "MiB", Better: "lower", Applies: OnLive, Moves: "peak_rss_mib", Def: "resident encoded frames at window end"},
	{Name: "server.drift_events", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvLate, Def: "broadcasts dispatched more than one unit late (expected 0)"},
	{Name: "server.pacer_restarts", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvLate, Def: "egress shard restarts (expected 0)"},
	{Name: "server.hello_rtt_p50_us", Unit: "us", Better: "lower", Applies: OnLive, Moves: mvStart, Def: "probe hello→welcome round trip, median"},
	{Name: "server.join_rtt_p50_us", Unit: "us", Better: "lower", Applies: OnLive, Moves: mvStart, Def: "probe join→joined round trip, median"},
	{Name: "server.join_rtt_p99_us", Unit: "us", Better: "lower", Applies: OnLive, Moves: mvStart + ", failed_share on paced_paper", Def: "same, highest supported percentile ≤ p99"},
	{Name: "server.repair_rtt_p50_us", Unit: "us", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "probe unicast repair round trip, median"},
	{Name: "server.nack_rtt_p50_us", Unit: "us", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "probe NACK round trip, median"},
	{Name: "server.repairs_served", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed + ", " + mvSrvCPU, Def: "unicast repairs answered in the window"},
	{Name: "server.nacks_served", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "NACK messages answered in the window"},
	{Name: "server.nack_resends", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvSrvCPU, Def: "multicast re-sends triggered by NACKs"},
	{Name: "server.storm_resends", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvSrvCPU, Def: "repair storms answered by one multicast re-send"},
	{Name: "server.busy_replies", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "repair requests pushed back with Busy"},
	{Name: "server.repair_datagrams", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvSrvCPU, Def: "multicast repair re-sends on the wire"},
	{Name: "server.parity_frame_share", Unit: "ratio", Better: "lower", Applies: OnLossy, Moves: mvSrvCPU, Def: "parity frames ÷ datagrams sent"},
	{Name: "server.control_sessions_peak", Unit: "count", Better: "lower", Applies: OnLive, Moves: "peak_rss_mib", Def: "control-connection high-water mark"},
	{Name: "server.rss_mib", Unit: "MiB", Better: "lower", Applies: OnLive, Moves: "peak_rss_mib", Def: "server child max RSS"},
	// mcast egress
	{Name: "mcast.datagrams_per_send_syscall", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvSrvCPU + " on dense_tick; ≈1 and flat on lossy_repair", Def: "datagramsSent delta ÷ egressSyscalls delta"},
	{Name: "mcast.superframe_datagram_share", Unit: "ratio", Better: "higher", Applies: OnLive, Moves: mvSrvCPU + " on dense_tick", Def: "datagrams that left inside GSO super-frames ÷ datagrams sent"},
	{Name: "mcast.gso_segments_per_superframe", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvSrvCPU + " on dense_tick", Def: "gsoSegments ÷ superframes (0 with no super-frame)"},
	{Name: "mcast.gso_fallbacks", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvSrvCPU, Def: "GSO path declined or abandoned"},
	{Name: "mcast.sendbatch_ns_per_datagram", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: "server.cpu_sys_ns_per_datagram on dense_tick", Def: "Hub.SendBatch over loopback at the run's datagrams per wakeup, per datagram"},
	{Name: "mcast.send_failures", Unit: "count", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "member writes that failed (expected 0)"},
	{Name: "mcast.members_evicted", Unit: "count", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "members dropped after consecutive send failures (expected 0)"},
	// mcast ingress
	{Name: "mcast.datagrams_per_read_syscall", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvAudCPU + " on dense_tick", Def: "audience batchedReads ÷ readSyscalls"},
	{Name: "mcast.gro_segment_share", Unit: "ratio", Better: "higher", Applies: OnLive, Moves: mvAudCPU + " on dense_tick", Def: "datagrams split out of GRO super-frames ÷ datagrams read"},
	{Name: "mcast.gro_fallbacks", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvAudCPU, Def: "GRO rung declined or demoted"},
	{Name: "mcast.read_errors", Unit: "count", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "failed socket reads (expected 0)"},
	{Name: "mcast.recv_drain_ns_per_datagram", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvAudCPU + " on dense_tick", Def: "SharedReceiver: send return → subscription drained, per datagram"},
	{Name: "mcast.ring_drops", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvUnhealed + ", failed_share, deliveries_per_s on dense_tick", Def: "datagrams lost to a full subscription ring: the first counter to leave 0 at saturation"},
	{Name: "mcast.deliveries_per_datagram", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvAudCPU, Def: "subscription deliveries ÷ datagrams the audience socket read"},
	// wire
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvSrvCPU + " on a cache miss", Def: "Chunk.Encode of one ChunkBytes payload"},
	{Name: "wire.patchseq_ns", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvSrvCPU, Def: "PatchSeq on a cached frame"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvAudCPU + " on dense_tick", Def: "Decode (CRC included) of one frame"},
	{Name: "wire.parity_decode_ns", Unit: "ns", Better: "lower", Applies: OnLossy, Traced: true, Moves: mvAudCPU + " on lossy_repair", Def: "DecodeParity of one stripe parity frame"},
	{Name: "wire.nack_codec_ns", Unit: "ns", Better: "lower", Applies: OnLossy, Traced: true, Moves: mvSrvCPU + " on lossy_repair", Def: "NackFromChunks + WriteControl + ReadControl of one NACK"},
	// content
	{Name: "content.fill_ns_per_kib", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvSetup + ", " + mvSrvCPU + " on a cache miss", Def: "content.Fill per KiB"},
	{Name: "content.verify_ns_per_kib", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvAudCPU + " on dense_tick and paced_paper", Def: "content.Verify per KiB"},
	// faults
	{Name: "faults.dropped", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "iid drops injected in the window (must repeat exactly per seed)"},
	{Name: "faults.burst_dropped", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "Gilbert–Elliott drops injected (must repeat exactly per seed)"},
	{Name: "faults.duplicated", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvAudCPU, Def: "duplicates injected (must repeat exactly per seed)"},
	{Name: "faults.reordered", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvAudCPU, Def: "reorders injected (must repeat exactly per seed)"},
	{Name: "faults.send_ns_per_chunk", Unit: "ns", Better: "lower", Applies: OnLossy, Traced: true, Moves: mvSrvCPU + " on lossy_repair only", Def: "Injector.Send of one chunk to a one-member group"},
	// viewer
	{Name: "viewer.admit_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: mvSetup, Def: "viewer.NewMux (dial + handshake), median over waves"},
	{Name: "viewer.cohorts", Unit: "count", Better: "lower", Applies: OnLive, Moves: "deliveries_per_s", Def: "cohorts per wave; a pure function of the seed (checked)"},
	{Name: "viewer.peak_cohorts", Unit: "count", Better: "lower", Applies: OnLive, Moves: "peak_rss_mib", Def: "concurrent cohort high-water mark"},
	{Name: "viewer.cpu_user_ns_per_delivery", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvAudCPU, Def: "user share of audience_cpu_ns_per_delivery"},
	{Name: "viewer.cpu_sys_ns_per_delivery", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvAudCPU, Def: "system share of audience_cpu_ns_per_delivery"},
	{Name: "viewer.machine_ns_per_chunk", Unit: "ns", Better: "lower", Applies: OnLive, Traced: true, Moves: mvAudCPU, Def: "viewer.Machine Chunk + Next per chunk, observe mode"},
	{Name: "viewer.stripe_ns_per_chunk", Unit: "ns", Better: "lower", Applies: OnLossy, Traced: true, Moves: mvAudCPU + " on lossy_repair", Def: "viewer.Stripe Data/Parity per chunk"},
	{Name: "viewer.fec_heals", Unit: "count", Better: "higher", Applies: OnLossy, Moves: mvUnhealed, Def: "chunks reconstructed from the parity stripe, summed over viewers"},
	{Name: "viewer.stripe_defeats", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "gaps the stripe could not heal (cohort level)"},
	{Name: "viewer.nacks_sent", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "cohort NACK round trips"},
	{Name: "viewer.nacks_suppressed", Unit: "count", Better: "higher", Applies: OnLossy, Moves: mvUnhealed, Def: "NACK windows that closed with nothing left to report"},
	{Name: "viewer.multicast_repairs", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "chunks healed by a multicast re-send, summed over viewers"},
	{Name: "viewer.unicast_repairs", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "chunks healed over unicast REPAIR"},
	{Name: "viewer.repair_requests", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "unicast REPAIR round trips issued"},
	{Name: "viewer.busy_replies", Unit: "count", Better: "lower", Applies: OnLossy, Moves: mvUnhealed, Def: "Busy pushbacks received"},
	{Name: "viewer.reconnects", Unit: "count", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "control re-dials (expected 0)"},
	{Name: "viewer.late_chunks", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvUnhealed, Def: "viewer-chunks past playback + slack"},
	{Name: "viewer.lost_chunks", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvUnhealed, Def: "viewer-chunks never received nor repaired"},
	{Name: "viewer.duplicate_chunks", Unit: "count", Better: "lower", Applies: OnLive, Moves: mvAudCPU, Def: "retransmissions discarded"},
	{Name: "viewer.byte_errors", Unit: "count", Better: "lower", Applies: OnLive, Moves: "correct", Def: "content-verification mismatches (must be 0)"},
	{Name: "viewer.rss_mib", Unit: "MiB", Better: "lower", Applies: OnLive, Moves: "peak_rss_mib", Def: "audience child max RSS"},
	// client
	{Name: "client.wait_units", Unit: "units", Better: "lower", Applies: OnLive, Moves: mvStart, Def: "sentinel client.Watch access latency"},
	{Name: "client.groups", Unit: "count", Better: "lower", Applies: OnLive, Moves: "correct", Def: "transmission groups the sentinel received"},
	{Name: "client.max_buffer_ratio", Unit: "ratio", Better: "lower", Applies: OnLive, Moves: "correct, failed_share", Def: "sentinel MaxBufferBytes ÷ ((W−1)·BytesPerUnit + ChunkBytes): the paper's 60·b·D1·(W−1) plus one chunk of arrival granularity (must be ≤ 1)"},
	// core, sim, bench, workload
	{Name: "core.new_ns", Unit: "ns", Better: "lower", Applies: OnAll, Traced: true, Moves: mvSim + ", " + mvSetup, Def: "core.New at the workload's geometry"},
	{Name: "core.plan_schedule_ns", Unit: "ns", Better: "lower", Applies: OnAll, Traced: true, Moves: mvSim + ", " + mvAudCPU, Def: "Scheme.PlanSchedule for one arrival"},
	{Name: "sim.sb_client_ns", Unit: "ns", Better: "lower", Applies: OnSim, Traced: true, Moves: mvSim, Def: "one SB client simulation"},
	{Name: "sim.pb_client_ns", Unit: "ns", Better: "lower", Applies: OnSim, Traced: true, Moves: mvSim, Def: "one PB client simulation"},
	{Name: "sim.ppb_client_ns", Unit: "ns", Better: "lower", Applies: OnSim, Traced: true, Moves: mvSim, Def: "one PPB client simulation"},
	{Name: "sim.staggered_client_ns", Unit: "ns", Better: "lower", Applies: OnSim, Traced: true, Moves: mvSim, Def: "one staggered client simulation"},
	{Name: "sim.parallel_speedup", Unit: "ratio", Better: "higher", Applies: OnSim, Moves: mvSim, Def: "workers=1 wall time ÷ workers=nproc wall time on one SB sweep (results must be bit-identical)"},
	{Name: "sim.bound_violations", Unit: "count", Better: "lower", Applies: OnSim, Moves: "failed_share", Def: "clients whose wait, buffer or stream count exceeds the scheme's closed form (must be 0)"},
	{Name: "workload.generate_ns_per_request", Unit: "ns", Better: "lower", Applies: OnSim, Traced: true, Moves: mvSim, Def: "workload.Generator.Next"},
	{Name: "bench.figures_cold_ms", Unit: "ms", Better: "lower", Applies: OnSim, Moves: mvSim, Def: "Figures 5a–8 from a reset scheme cache, median"},
	{Name: "bench.figures_memo_ms", Unit: "ms", Better: "lower", Applies: OnSim, Moves: mvSim, Def: "the same regeneration with the cache warm, median"},
	{Name: "bench.cache_builds", Unit: "count", Better: "lower", Applies: OnSim, Moves: "bench.figures_cold_ms", Def: "scheme constructions per cold regeneration"},
	{Name: "bench.crossvalidate_ms", Unit: "ms", Better: "lower", Applies: OnSim, Moves: mvSim, Def: "CrossValidate (120 phases) alone, cache warm, median over rounds"},
	// probe, trace
	{Name: "probe.sessions", Unit: "count", Better: "higher", Applies: OnLive, Moves: mvStart, Def: "probe sessions attempted (the sample count behind start latency)"},
	{Name: "probe.datagrams", Unit: "count", Better: "higher", Applies: OnLive, Moves: "delivery_lateness_p50_ms", Def: "datagrams the probe received"},
	{Name: "probe.lateness_p99_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "delivery lateness, highest supported percentile ≤ p99"},
	{Name: "probe.schedule_slip_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: mvLate + ", " + mvStart, Def: "largest whole-tick shift of the broadcast schedule the rover saw (a stalled wheel shard never catches up behind the fault injector); taken out of lateness and start latency on lossy_repair only"},
	{Name: "probe.generator_lag_p99_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: mvStart, Def: "how late the open-loop generators ran: probe sessions after their due time, audience waves after their slot"},
	{Name: "probe.decode_errors", Unit: "count", Better: "lower", Applies: OnLive, Moves: "correct", Def: "frames failing CRC or content verification at the probe (must be 0)"},
	{Name: "probe.host_pause_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "longest time the host kept the orchestrator's watcher threads (one pinned per CPU, 5 ms ticks) from running during a wave that was kept; a wave with a pause of 200 ms or more is run again, at most twice a run"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Applies: OnAll, Traced: true, Moves: "—", Def: "spans recorded across the three processes"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Applies: OnLive, Traced: true, Optional: true, Moves: "—", Def: "(traced − untraced) ÷ untraced server_cpu_ns_per_datagram, when an untraced report of the seed is on disk"},
	{Name: "trace.unattributed_cpu_share", Unit: "ratio", Better: "lower", Applies: OnLive, Traced: true, Moves: "—", Def: "share of the two children's CPU the layer budget does not explain (wheel, scheduler, cohort goroutines)"},
	// the end-to-end metrics BENCHMARK.json cannot bound, repeated for the driver's record
	{Name: "e2e.failed_share", Unit: "ratio", Better: "lower", Applies: OnLive, Moves: "failed_share", Def: "failed_share"},
	{Name: "e2e.unhealed_chunk_share", Unit: "ratio", Better: "lower", Applies: OnLive, Moves: mvUnhealed, Def: "unhealed_chunk_share"},
	{Name: "e2e.server_cpu_ns_per_datagram", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvSrvCPU, Def: "server_cpu_ns_per_datagram"},
	{Name: "e2e.audience_cpu_ns_per_delivery", Unit: "ns", Better: "lower", Applies: OnLive, Moves: mvAudCPU, Def: "audience_cpu_ns_per_delivery"},
	{Name: "e2e.delivery_lateness_p90_ms", Unit: "ms", Better: "lower", Applies: OnLive, Moves: "delivery_lateness_p90_ms", Def: "delivery_lateness_p90_ms"},
}

// FindMetric looks a name up in both tables.
func FindMetric(name string) (MetricDef, bool) {
	for _, tab := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return MetricDef{}, false
}

// GatedWorkloads are the workloads BENCHMARK.json lists: the live ones.
func GatedWorkloads() []Workload {
	var out []Workload
	for _, w := range Workloads {
		if w.Live != nil {
			out = append(out, w)
		}
	}
	return out
}

// GatedEndToEnd are the end-to-end metrics BENCHMARK.json bounds: measured
// on every gated workload, never 0, and steady across hours (see EndToEnd).
func GatedEndToEnd() []MetricDef {
	var out []MetricDef
	for _, d := range EndToEnd {
		if d.Applies&OnLive == OnLive && !d.AbsBound && !d.Ungated {
			out = append(out, d)
		}
	}
	return out
}

// GatedPerLayer are the per-layer metrics BENCHMARK.json lists: every one
// measured on some gated workload.
func GatedPerLayer() []MetricDef {
	var out []MetricDef
	for _, d := range PerLayer {
		if d.Applies&OnLive != 0 {
			out = append(out, d)
		}
	}
	return out
}

// RunSeconds is BENCHMARK.json's run_seconds: two dense_tick waves (each
// 195 + 8 + 6 units of 100 ms plus the window's lead and tail). It holds
// one paced_paper wave (31.7 s) and two lossy_repair waves (29.8 s).
const RunSeconds = 44

// Manifest renders BENCHMARK.json from the tables above.
func Manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: RunSeconds,
	}
	for _, w := range GatedWorkloads() {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range GatedEndToEnd() {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range GatedPerLayer() {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
