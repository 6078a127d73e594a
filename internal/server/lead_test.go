package server

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"skyscraper/internal/mcast"
)

// TestWakeLeadEstimator pins the estimator on scripted latencies, no clock
// involved: 0 until the first sample, which it adopts; convergence on a
// steady latency; the clamp; how little one outlier moves it and how soon
// it is forgotten; and that an early return is not a measurement.
func TestWakeLeadEstimator(t *testing.T) {
	const bound = 250 * time.Microsecond // quantum/4 of a 1 ms wheel
	var l leadEstimator
	if got := l.value(); got != 0 {
		t.Fatalf("lead before any sample = %v, want 0", got)
	}
	l.observe(-time.Millisecond, bound)
	if got := l.value(); got != 0 {
		t.Fatalf("lead after an early return = %v, want 0 (not a measurement)", got)
	}
	l.observe(40*time.Microsecond, bound)
	if got := l.value(); got != 40*time.Microsecond {
		t.Fatalf("lead after the first sample = %v, want that sample", got)
	}
	const steady = 80 * time.Microsecond
	for i := 0; i < 64; i++ {
		l.observe(steady, bound)
	}
	if got := l.value(); got < steady-time.Microsecond || got > steady {
		t.Fatalf("lead after 64 samples of %v = %v", steady, got)
	}

	before := l.value()
	l.observe(50*time.Millisecond, bound) // the process was descheduled
	moved := l.value() - before
	if moved <= 0 || moved > (bound-before)/8+1 {
		t.Errorf("one 50 ms outlier moved the lead by %v, want at most an eighth of the way to the %v bound", moved, bound)
	}
	for i := 0; i < 32; i++ {
		l.observe(steady, bound)
	}
	if got := l.value(); got > steady+time.Microsecond {
		t.Errorf("lead 32 ticks after the outlier = %v, want back at %v", got, steady)
	}

	for i := 0; i < 200; i++ {
		l.observe(10*time.Millisecond, bound)
		if got := l.value(); got > bound {
			t.Fatalf("lead = %v exceeds its bound %v", got, bound)
		}
	}
	if got := l.value(); got < bound-time.Microsecond {
		t.Errorf("lead under sustained slow wakes = %v, want the bound %v", got, bound)
	}
}

// TestStageLeadEstimator pins the stage lead on scripted staging times,
// no clock involved: it adopts its first sample, follows the measured time
// when the tick's cost changes, clamps every sample to the shard's bound,
// and the lead the shard arms with — wake latency plus staging time —
// never exceeds min(maxWakeLead, quantum/4), however the two split it.
func TestStageLeadEstimator(t *testing.T) {
	const us = time.Microsecond
	for _, tc := range []struct {
		name          string
		spacing       time.Duration // the shard's quantum
		wake          time.Duration // every wake sample
		stage, then   time.Duration // the staging samples, before and after the tick's cost changes
		bound         time.Duration
		stageLead     time.Duration // settled on `then`
		lead          time.Duration // what the shard arms with, settled
		firstStageObs time.Duration // the stage lead after one sample
	}{
		{"light tick", 3125 * us, 60 * us, 12 * us, 12 * us, 300 * us, 12 * us, 72 * us, 12 * us},
		{"faulted tick", 3125 * us, 60 * us, 108 * us, 108 * us, 300 * us, 108 * us, 168 * us, 108 * us},
		{"audience arrives", 3125 * us, 60 * us, 12 * us, 108 * us, 300 * us, 108 * us, 168 * us, 12 * us},
		{"audience leaves", 3125 * us, 60 * us, 108 * us, 12 * us, 300 * us, 12 * us, 72 * us, 108 * us},
		{"stage over bound", 3125 * us, 60 * us, 5 * time.Millisecond, 5 * time.Millisecond, 300 * us, 300 * us, 300 * us, 300 * us},
		{"sum over bound", 3125 * us, 200 * us, 150 * us, 150 * us, 300 * us, 150 * us, 300 * us, 150 * us},
		{"fine quantum", 400 * us, 60 * us, 108 * us, 108 * us, 100 * us, 100 * us, 100 * us, 100 * us},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := &wheelShard{entries: []*wheelEntry{{spacing: tc.spacing}}}
			bound := sh.leadBound()
			if bound != tc.bound {
				t.Fatalf("bound = %v at a %v quantum, want %v", bound, tc.spacing, tc.bound)
			}
			if got := sh.lead(bound); got != 0 {
				t.Fatalf("lead before any sample = %v, want 0", got)
			}
			sh.stageLead.observe(tc.stage, bound)
			if got := sh.stageLead.value(); got != tc.firstStageObs {
				t.Fatalf("stage lead after the first sample = %v, want %v", got, tc.firstStageObs)
			}
			for i := 0; i < 64; i++ {
				sh.wakeLead.observe(tc.wake, bound)
				sh.stageLead.observe(tc.stage, bound)
				if got := sh.lead(bound); got > bound {
					t.Fatalf("lead = %v exceeds the bound %v", got, bound)
				}
			}
			for i := 0; i < 64; i++ {
				sh.wakeLead.observe(tc.wake, bound)
				sh.stageLead.observe(tc.then, bound)
				if got := sh.lead(bound); got > bound {
					t.Fatalf("lead = %v exceeds the bound %v", got, bound)
				}
			}
			near := func(got, want time.Duration) bool { return got >= want-us && got <= want+us }
			if got := sh.stageLead.value(); !near(got, tc.stageLead) {
				t.Errorf("stage lead = %v after 64 samples of %v, want %v", got, tc.then, tc.stageLead)
			}
			if got := sh.lead(bound); !near(got, tc.lead) {
				t.Errorf("armed lead = %v, want %v", got, tc.lead)
			}
			srv := &Server{wheel: []*wheelShard{sh}}
			if got := srv.wakeLead(); got != sh.lead(bound) {
				t.Errorf("/status lead = %v, want the armed %v", got, sh.lead(bound))
			}
		})
	}
}

// leadRig is a wheelRig of one video's three channels, every group
// heard, on a 5 ms grid (lead bound 300 µs) whose readings cost `work`
// each.
func leadRig(t *testing.T, work time.Duration) *wheelRig {
	t.Helper()
	r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 20 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
	r.hearAll(t)
	r.vc.work = work
	return r
}

// TestLeadNeverDispatchesEarly: whatever the tick source does — waits
// exactly, wakes slowly, returns a little or a lot sooner than asked, or
// fails mid-run and is replaced by the runtime timer — every frame leaves
// on or after its grid instant, every channel walks its grid, no hold is
// longer than the lead bound and the lead stays within it.
func TestLeadNeverDispatchesEarly(t *testing.T) {
	for name, sc := range map[string]struct {
		wake   time.Duration
		failAt int
	}{
		"exact":         {},
		"slow wake":     {wake: 150 * time.Microsecond},
		"a little soon": {wake: -100 * time.Microsecond},
		"far too soon":  {wake: -3 * time.Millisecond},
		"demoted":       {failAt: 12},
	} {
		t.Run(name, func(t *testing.T) {
			r := twice(t, func() *wheelRig {
				r := leadRig(t, 5*time.Microsecond)
				r.vc.wake = sc.wake
				r.vc.onPark = func(n int) { r.vc.fail = n == sc.failAt }
				r.play(40)
				return r
			})
			by := checkOnGrid(t, r, r.srv.cfg.Unit)
			for k, frames := range by {
				if len(frames) != 40 {
					t.Errorf("video%d/ch%d sent %d chunks in 40 ticks", k.video, k.channel, len(frames))
				}
			}
			bound := r.sh.leadBound()
			if lead := r.srv.wakeLead(); lead < 0 || lead > bound {
				t.Errorf("lead = %v, outside [0, %v]", lead, bound)
			}
			if r.vc.maxHold > bound {
				t.Errorf("a hold waited %v, over the lead bound %v", r.vc.maxHold, bound)
			}
			if want := sc.failAt > 0; r.srv.tickDemoted.Load() != want {
				t.Errorf("tick source demoted = %v, want %v", !want, want)
			}
		})
	}
}

// TestLeadFollowsWakeLatency: the lead is 0 when the first wait is armed;
// with every wake 250 µs late it settles at no less than that and no more
// than the bound; and from the third tick on every frame leaves less than
// half that lateness after its instant, although every wake is late by
// all of it.
func TestLeadFollowsWakeLatency(t *testing.T) {
	const late = 250 * time.Microsecond
	firstLead := time.Duration(-1)
	r := twice(t, func() *wheelRig {
		r := leadRig(t, 5*time.Microsecond)
		r.vc.wake = late
		r.vc.onPark = func(n int) {
			if n == 1 {
				firstLead = r.srv.wakeLead()
			}
		}
		r.play(100)
		return r
	})
	if firstLead != 0 {
		t.Errorf("lead when the first wait was armed = %v, want 0", firstLead)
	}
	bound := r.sh.leadBound()
	if lead := r.srv.wakeLead(); lead < late || lead > bound {
		t.Errorf("lead = %v after 100 ticks of wakes %v late, want within [%v, %v]", lead, late, late, bound)
	}
	for k, frames := range checkOnGrid(t, r, r.srv.cfg.Unit) {
		g := r.grid(frames[0].g)
		for _, f := range frames {
			if lag := f.at - g.dueOf(f.n, f.c); f.batch > 2 && lag >= late/2 {
				t.Fatalf("video%d/ch%d (rep %d, chunk %d) left %v after its instant, want < %v", k.video, k.channel, f.n, f.c, lag, late/2)
			}
		}
	}
}

// TestLeadCloseDuringHold: with every wait returning at once, the shard
// spends its time between ticks re-arming and holding on the clock; a stop
// that comes during a hold still ends the run as soon as the held tick is
// out, because a hold is bounded by the lead.
func TestLeadCloseDuringHold(t *testing.T) {
	var atStop int
	r := twice(t, func() *wheelRig {
		atStop = -1
		r := leadRig(t, 3*time.Microsecond)
		r.vc.wake = -time.Hour
		r.vc.onHold = func(int) {
			if atStop < 0 && r.log.batches >= 10 {
				atStop = r.log.batches
				close(r.srv.stop)
			}
		}
		r.play(1000)
		return r
	})
	checkOnGrid(t, r, r.srv.cfg.Unit)
	if atStop < 0 {
		t.Fatal("no hold to stop in")
	}
	if r.log.batches != atStop+1 {
		t.Errorf("%d releases after a stop during a hold, want just the held tick's", r.log.batches-atStop)
	}
	if bound := r.sh.leadBound(); r.vc.maxHold > bound {
		t.Errorf("a hold waited %v, over the lead bound %v", r.vc.maxHold, bound)
	}
}

// TestTickBudgetReported: with a listener, every tick's staging, warm
// and send are timed — here each reading of the clock costs 10 µs, so the
// warm and the send take exactly that, and the staging, which the warm
// ends, twice that — and /status carries the tick's budget — lead,
// staging, warm, send — under its names beside the wake lateness.
func TestTickBudgetReported(t *testing.T) {
	const work = 10 * time.Microsecond
	r := twice(t, func() *wheelRig {
		r := newWheelRig(t, Config{Scheme: wheelScheme(t, 1, 3), Unit: 20 * time.Millisecond, BytesPerUnit: 4096, ChunkBytes: 1024, Logf: t.Logf})
		r.join(t, mcast.Group{Video: 0, Channel: 1})
		r.vc.work = work
		r.play(20)
		return r
	})
	snap := r.srv.Status()
	// A log2 bucket holds [2^(b-1), 2^b) ns; its quantiles interpolate
	// inside it.
	inBucket := func(us float64, d time.Duration) bool { return us >= float64(d)/2e3 && us <= 2*float64(d)/1e3 }
	if !inBucket(snap.EgressWarmP50Us, work) || !inBucket(snap.EgressSendP50Us, work) || !inBucket(snap.EgressSendP99Us, work) {
		t.Errorf("tick budget: warm p50 %v us, send p50 %v us, p99 %v us; want each in %v's bucket",
			snap.EgressWarmP50Us, snap.EgressSendP50Us, snap.EgressSendP99Us, work)
	}
	if !inBucket(snap.EgressStageP50Us, 2*work) {
		t.Errorf("tick budget: stage p50 %v us, want in %v's bucket", snap.EgressStageP50Us, 2*work)
	}
	if max := float64(r.sh.leadBound()) / 1e3; snap.EgressWakeLeadUs <= 0 || snap.EgressWakeLeadUs > max {
		t.Errorf("egressWakeLeadUs = %v, outside (0, %v]", snap.EgressWakeLeadUs, max)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"egressWakeLeadUs":`, `"egressStageP50Us":`, `"egressWarmP50Us":`, `"egressSendP50Us":`, `"egressSendP99Us":`} {
		if !strings.Contains(string(doc), field) {
			t.Errorf("/status document lacks %s", field)
		}
	}
}

// TestWakeLateReported: a shard whose every wake comes twice the lead
// bound late leads by the bound and releases each tick the rest late; the
// wake-lateness histogram holds one sample a wakeup, and /status carries
// it with the tick source under their names.
func TestWakeLateReported(t *testing.T) {
	const ticks = 20
	var bound time.Duration
	r := twice(t, func() *wheelRig {
		r := leadRig(t, 5*time.Microsecond)
		bound = r.sh.leadBound()
		r.vc.wake = 2 * bound
		r.play(ticks)
		return r
	})
	samples, snap := r.srv.wakeLateness().Count(), r.srv.Status()
	if samples != ticks || snap.EgressWakeups != ticks {
		t.Errorf("%d wake-lateness samples for %d wakeups, want one for each of %d ticks", samples, snap.EgressWakeups, ticks)
	}
	// Led by the bound and woken twice it late: the rest of the bound late.
	if p50 := time.Duration(snap.EgressWakeLateP50Us * 1e3); p50 < bound/2 || p50 > 2*bound {
		t.Errorf("wake late p50 = %v, want in %v's bucket", p50, bound)
	}
	if snap.EgressWakeLateP99Us < snap.EgressWakeLateP50Us {
		t.Errorf("wake late p99 %v us < p50 %v us", snap.EgressWakeLateP99Us, snap.EgressWakeLateP50Us)
	}
	want := tickTimer
	if haveTimerfd {
		want = tickTimerfd
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"egressTickSource":"` + want + `"`, `"egressWakeLateP50Us":`, `"egressWakeLateP99Us":`} {
		if !strings.Contains(string(doc), field) {
			t.Errorf("/status document lacks %s", field)
		}
	}
}
