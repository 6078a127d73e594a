GO ?= go

# Stamps every BENCH_*.json with one metadata line (commit, CPU model,
# GOMAXPROCS, go version, UTC date) so recorded trajectories say what
# machine produced them.
BENCHMETA = ./scripts/benchmeta.sh

.PHONY: build build-portable test test-time vet fmt-check race chaos chaos-check test-portable fuzz scale-smoke bench-e2e-smoke vulncheck verify loc bench bench-sweep bench-datapath bench-overload bench-egress bench-scale bench-ingress

build:
	$(GO) build ./...

# The files behind `!linux || (!amd64 && !arm64)` (internal/mcast/stub.go,
# internal/server/ticksource_other.go) are compiled by nothing else in
# this gate: a non-linux target and a linux target without the 64-bit
# Msghdr layout. vet compiles the test files too, so a test that only
# builds where int is 64 bits fails here. Cross-compiling needs no
# network and no C toolchain.
build-portable:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

test:
	$(GO) test ./...

# The 15 slowest top-level tests of the tier-1 suite, slowest first, read
# off go test -v's "--- PASS: Name (Ns)" lines: the slow-test table in
# ROADMAP.md is this output.
test-time:
	@$(GO) test -count=1 -v ./... 2>&1 | sed -n 's/^--- PASS: \([^ ]*\) (\([0-9.]*\)s)$$/\2s  \1/p' | sort -rn | head -15

# benchmark/ is a nested module the root ./... never reaches; vetting it
# here makes an exported-name change that breaks the harness fail in
# seconds instead of inside bench-e2e-smoke.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# Every Go file in the tree is gofmt-clean (benchmark/ included).
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l flags:"; gofmt -l .; exit 1; }

# The parallel sweep engine, the bench scheme cache, the fault injector,
# the lock-free hub/frame-cache data path, the wire codecs (shared by
# every concurrent sender), the server (egress shards, control
# handlers and re-sends all materialising frames from the same CRC
# table, each into memory of its own), and the viewer mux with its
# one-session front (every client.Watch runs the mux's read loop
# against its control goroutine) are concurrent; every PR must pass the
# race detector over them.
race:
	$(GO) test -race ./internal/des ./internal/metrics ./internal/sim ./internal/bench \
		./internal/faults ./internal/mcast ./internal/viewer ./internal/client ./internal/wire ./internal/server

# The chaos gate: the fault-injection, loss-recovery, and overload suites
# — seeded drop/duplicate/reorder plans, NACK rounds healed by re-sends
# (refused, failed, cut off by a bye), reconnects (and
# re-joins on a redial), graceful degradation, repair admission (the
# server's unicast arm, NACK re-sends refused over budget), the
# control session's step (verbs on a virtual clock, the control-sequence
# fuzzer's seeds, memberships shared and released exactly, the line cap
# the longest lines fit), the audience's membership count on its loop
# (a tune of a held group asking nothing, tunes held by a join in flight
# and failed by a refused one, a later tune of the refused group failed at
# once and the run ending, the mux control-sequence fuzzer's seeds: no
# fragment left waiting, re-joins on every redial, a changed epoch
# refused), the NACK re-send table
# (sweep at cap, window expiry, one window per repetition), supervised
# egress shards, drain, member eviction, the batched egress
# engine (the wheel's real tick loop on a virtual clock held to the
# closed-form grid under scripted wakes, stalls and panics, shard panic
# recovery, vectorized/fallback/GSO identity — the sendmmsg stager at
# runs of one, the portable writer, the stager with super-frames — the
# stager's shortest-chain-first send order, catch-up run staging),
# hostile control lines (index overflow), the ingress ladder
# (recvmmsg/GRO/single-read delivery identity, kill-switch demotion, GRO
# super-frame splitting, read-error backoff), the proactive FEC stripe
# (parity encode,
# stripe reassembly, defeat escalation, burst loss), the audience's
# receive pass (one decode per datagram for every cohort that hears it
# under drop/duplicate/reorder with the stripe on, byte errors per
# cohort, zero allocations per routed read, tap turnover retaining
# nothing, 200 closed receivers leaving no descriptor, mapping or
# goroutine), the audience's one loop (a pause of three repair lags
# costing no gap, the handler's deadline and Wake on both read rungs,
# two goroutines for 20+ cohorts), and the
# wheel's tick source on the wall clock (never early,
# stop wakes a parked shard, fallback and demotion, no descriptor or
# goroutine left behind by restarts) and its wake lead on the virtual one
# (one measured span — wake, stage and warm — never early whatever the
# source does, bounded by a quarter of the tick, following the wake
# latency, a stop during a hold), the one grid every channel's chunks
# fall on (chunkAt and chunkDue against the closed form up to 10⁹ units
# past the epoch, and on a floored geometry — a chunk spacing that is
# not a whole number of nanoseconds — every frame on or after its
# instant and within a tick of it), the
# tick split in two (staging sends nothing, a join between stage and
# release starts with the next tick, each frame's
# fault decision made once), listener-gated materialise-on-send (only
# heard groups staged, fault counts independent of the audience, re-sends
# never aliasing dispatch memory, a heap that does not follow the
# catalog), and the
# injector's one decision path at stage (Stage ≡ per-chunk Send, counts
# pinned per seed, held frames are copies), and the send-path warm (one
# per heard tick, inside the lead, invisible to the fault plan and to
# every member, its sink closed with the hub) — under the race detector.
CHAOS_PKGS = ./internal/faults ./internal/client ./internal/server ./internal/mcast ./internal/viewer
CHAOS_RUN = Chaos|Fault|Repair|Recover|Degrad|Reconnect|Control|Session|Membership|Overload|Drain|Evict|Busy|Bye|Jitter|Wheel|Batch|Golden|Cohort|Mux|Nack|GSO|Catchup|Overflow|Fec|Parity|Stripe|Recv|Gro|GRO|Route|Tick|WakeLate|Heard|Unheard|Materialise|HeapFlat|Lead|Stage|Release|Warm|Pause|Goroutine

chaos:
	$(GO) test -race -count=1 -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# Every alternative of CHAOS_RUN selects at least one Test or Fuzz
# function of CHAOS_PKGS: a word left behind by a renamed or deleted test
# fails here instead of quietly selecting nothing.
chaos-check:
	@names=$$($(GO) test -list '.*' $(CHAOS_PKGS) | grep -E '^(Test|Fuzz)'); \
	dead=; for w in $$(echo '$(CHAOS_RUN)' | tr '|' ' '); do \
		echo "$$names" | grep -q -- "$$w" || dead="$$dead $$w"; \
	done; \
	if [ -n "$$dead" ]; then echo "chaos-check: CHAOS_RUN words matching no test:$$dead"; exit 1; fi

# The portable-fallback pin: egress collapsed to plain per-datagram
# writes (no sendmmsg stager, so no GSO) and the ingress ladder to
# plain single-datagram reads (no recvmmsg, no GRO) must still pass the
# mcast suite, proving the fast paths are accelerations of — not
# departures from — the portable semantics every non-Linux build runs.
# The server's tick-source tests run on the runtime timer, the source
# every non-Linux build parks, wakes and pokes its shards on.
test-portable:
	SKYSCRAPER_NO_GSO=1 SKYSCRAPER_NO_SENDMMSG=1 \
		SKYSCRAPER_NO_RECVMMSG=1 SKYSCRAPER_NO_GRO=1 \
		$(GO) test -count=1 ./internal/mcast
	$(GO) test -count=1 -run 'Tick/^timer$$' ./internal/server

# Ten seconds of coverage-guided fuzzing per wire decoder (frame and
# control planes): malformed input must error, never panic, and every
# accepted message must survive an encode/decode round trip. Then ten
# seconds of control sessions played as sequences against a model, and
# ten of the audience's control connection played as sequences against a
# scripted peer; a new input is minimized for at most 100 runs, so the
# ten seconds go to running sequences.
fuzz:
	$(GO) test ./internal/wire -fuzz 'FuzzChunkDecode$$' -fuzztime 10s -run '^$$'
	$(GO) test ./internal/wire -fuzz 'FuzzControlDecode$$' -fuzztime 10s -run '^$$'
	$(GO) test ./internal/server -fuzz 'FuzzControlSequence$$' -fuzztime 10s -fuzzminimizetime 100x -run '^$$'
	$(GO) test ./internal/viewer -fuzz 'FuzzMuxControlSequence$$' -fuzztime 10s -fuzzminimizetime 100x -run '^$$'

# Known-vulnerability scan, skipped quietly where the tool is not
# installed (the repo adds no dependencies, so this guards the stdlib).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi

# The cohort-repair smoke gate: a fast faulted capacity sweep that fails
# unless every session survives 2% loss undegraded AND NACK round trips
# stay under half the per-viewer recovery baseline (drop x
# chunks/session x viewers) — each cohort NACKing as one voice keeps
# repair work O(cohorts), asserted on every verify.
scale-smoke:
	$(GO) run ./cmd/skychaos -scale -viewers 200 -fault-viewers 200,800 \
		-fault-drop 0.02 -unit 50ms -procs 2 -assert-cohort-repair \
		-out /tmp/BENCH_scale_smoke.json

# The end-to-end benchmark's smoke gate: the harness's own unit tests
# (benchmark/ is a nested module, so the root `go test ./...` never
# reaches them), then every skybench workload over 3 s windows. The
# reports are marked not_for_claims; the gate is that every role still
# starts, every workload still runs to a report (skybench exits non-zero
# when one cannot), and each prints `failed 0; outputs correct: true`.
bench-e2e-smoke:
	$(GO) test -C benchmark ./...
	$(GO) run -C benchmark ./skybench -workload all -short

# The agreed line count for deletion PRs: non-test Go lines outside
# benchmark/, in total and per internal/* package.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l; }; \
	printf '%7d  total (non-test Go outside benchmark/)\n' "$$(count .)"; \
	for d in internal/*/; do printf '%7d  %s\n' "$$(count $$d)" "$${d%/}"; done

# The PR gate: tier-1 build+test, the portable cross-builds, vet, gofmt,
# race-checked concurrency, the chaos suite and the check that its -run
# list names live tests, the portable-fallback pin, fuzzers, the
# cohort-repair smoke sweep, the end-to-end benchmark smoke,
# vulnerability scan, and the data-path benchmark record.
verify: build build-portable vet fmt-check test race chaos-check chaos test-portable fuzz scale-smoke bench-e2e-smoke vulncheck bench-datapath

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Record the sweep/figure benchmark trajectory (see EXPERIMENTS.md).
bench-sweep:
	$(GO) test -bench 'Sweep|Figures' -run '^$$' -json . > BENCH_sweep.json
	$(BENCHMETA) bench-sweep >> BENCH_sweep.json

# Record the broadcast data-path benchmarks — per-chunk encode (seed vs
# materialise-on-send), word-wise content generation, lock-free hub
# fan-out — with allocation counts (see EXPERIMENTS.md "Data-path
# throughput").
bench-datapath:
	$(GO) test -bench 'PaceEncode|ContentFill|ContentVerify|HubSend' -benchmem -run '^$$' -json \
		./internal/server ./internal/content ./internal/mcast > BENCH_datapath.json
	$(BENCHMETA) bench-datapath >> BENCH_datapath.json

# Record the overload curve: a fixed repair budget against 1x..3x demand
# (see EXPERIMENTS.md "Overload behavior").
bench-overload:
	$(GO) run ./cmd/skychaos -overload -drops 0.05 -multipliers 1,2,3 -out BENCH_overload.json
	$(BENCHMETA) bench-overload >> BENCH_overload.json

# Record the audience-capacity curves: the lossless base sweep holds
# 1k/10k/100k emulated sessions (two emulator processes, real loopback
# sockets) against one server and records viewers vs {start-latency
# quantiles, degraded sessions, server CPU}; the faulted contrast sweep
# replays 500/2k/8k viewers under 2% drop on its own server and records
# the cohort repair plane's ledger (NACKs, suppressed windows, multicast
# heals, FEC stripe heals). The G=4 parity stripe is on, so the record
# shows the proactive rung absorbing scattered loss before the NACK
# ladder spends any control traffic (see EXPERIMENTS.md "Audience
# capacity").
bench-scale:
	$(GO) run ./cmd/skychaos -scale -viewers 1000,10000,100000 -procs 2 \
		-fault-drop 0.02 -fault-viewers 500,2000,8000 \
		-fec-group 4 -unit 200ms -assert-cohort-repair -out BENCH_scale.json
	$(BENCHMETA) bench-scale >> BENCH_scale.json

# Record the batched egress benchmarks: vectorized vs fallback fan-out
# at 1/8/64 members, GSO super-frames (same-group runs to 1/8/64 members,
# one socket hearing 22 groups, with and without larger frames mid-run,
# and the mixed tick: that socket's chain first in batch order and two
# one-group sockets the shortest-first reorder sends ahead of it), the
# wheel's dispatch cycle at 2..2100 channels and a whole
# listener-gated dispatch at 200/400 channels with 5 % heard, plain and
# behind the fault injector,
# the first datagram's time to the receiver's kernel stamp after a
# 0.5/5/17.5 ms quiet gap, sent cold and right after a warm, and after
# a 17.5 ms gap with a spin of 0 µs to 2 ms between the warm and the send
# (how long a warm lasts, the hold's span), the shard
# wake lateness of both tick sources at 3.125 and 17.5 ms spacing, and
# padded vs unpadded counter contention (see EXPERIMENTS.md "Egress
# engine").
bench-egress:
	$(GO) test -bench 'EgressFanout|EgressSuperframe|EgressWarm|WheelDispatch|WheelWake|CounterParallel' -benchmem -run '^$$' -json \
		./internal/mcast ./internal/server ./internal/metrics > BENCH_egress.json
	$(BENCHMETA) bench-egress >> BENCH_egress.json

# Record the ingress-ladder benchmarks: the shared receiver draining
# 1/8/64-datagram bursts through each rung (single-read, recvmmsg,
# recvmmsg+GRO) to 1 and to 4 subscriptions of the group, reporting
# datagrams/s, ns/delivery, B/op, the achieved
# datagrams-per-read-syscall batching factor, GRO segments recovered per
# op, and allocation counts; then the 8k-viewer faulted capacity sweep
# twice — once with the ingress ladder pinned off (the "before"), once
# with it on — so the record shows the ladder's effect on a real
# audience, not just a microbenchmark (see EXPERIMENTS.md "Ingress
# ladder").
bench-ingress:
	$(GO) test -bench 'SharedReceiverDrain' -benchmem -run '^$$' -json \
		./internal/mcast > BENCH_ingress.json
	SKYSCRAPER_NO_RECVMMSG=1 SKYSCRAPER_NO_GRO=1 \
		$(GO) run ./cmd/skychaos -scale -viewers 1000 -procs 2 \
		-fault-drop 0.02 -fault-viewers 8000 -unit 100ms \
		-out /tmp/BENCH_ingress_scale_before.json
	$(GO) run ./cmd/skychaos -scale -viewers 1000 -procs 2 \
		-fault-drop 0.02 -fault-viewers 8000 -unit 100ms \
		-out /tmp/BENCH_ingress_scale_after.json
	@echo '{"Section":"ingress_scale_before","LadderOff":true}' >> BENCH_ingress.json
	@cat /tmp/BENCH_ingress_scale_before.json >> BENCH_ingress.json
	@echo '{"Section":"ingress_scale_after","LadderOff":false}' >> BENCH_ingress.json
	@cat /tmp/BENCH_ingress_scale_after.json >> BENCH_ingress.json
	$(BENCHMETA) bench-ingress >> BENCH_ingress.json
