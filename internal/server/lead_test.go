package server

import (
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// tickScript is how a scriptedTicks departs from the real source it waits
// on: it returns `early` sooner than asked (a source that breaks the
// never-less contract), stays parked `late` longer (a slow wake), and
// after failAfter waits answers with an error. first, when set, runs
// inside the first wait.
type tickScript struct {
	early, late time.Duration
	failAfter   int64 // 0: never
	first       func()
}

type scriptedTicks struct {
	tickScript
	inner tickSource
	waits atomic.Int64
	run   *leadRunLog
}

func (s *scriptedTicks) wait(d time.Duration) (bool, error) {
	n := s.waits.Add(1)
	if n == 1 && s.first != nil {
		s.first()
	}
	if s.failAfter > 0 && n > s.failAfter {
		return false, errors.New("lead_test: scripted failure")
	}
	armed := time.Now()
	ticked, err := s.inner.wait(d - s.early + s.late)
	if ticked && d > 0 {
		s.run.note(&s.run.wakes, time.Since(armed)-d)
	}
	return ticked, err
}
func (s *scriptedTicks) wake()  { s.inner.wake() }
func (s *scriptedTicks) close() { s.inner.close() }

// leadRunLog is what a leadRun measured, in dispatch order: for every
// chunk, how long after its grid instant epoch + n·period + c·spacing the
// dispatch reached its hook (negative: before it), and for every wait
// that parked, how long past the instant it was asked for the source
// returned (scripted lateness included).
type leadRunLog struct {
	mu         sync.Mutex
	late       []time.Duration
	wakes      []time.Duration
	dispatched chan struct{} // closed once the wanted chunks are out
}

func (l *leadRunLog) note(to *[]time.Duration, v time.Duration) {
	l.mu.Lock()
	*to = append(*to, v)
	l.mu.Unlock()
}

// earliest is how long before its instant the most premature chunk was
// dispatched; ≤ 0 when none was early.
func (l *leadRunLog) earliest() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	worst := -time.Hour
	for _, v := range l.late {
		if -v > worst {
			worst = -v
		}
	}
	return worst
}

// median of the samples from index skip on.
func median(samples []time.Duration, skip int) time.Duration {
	tail := append([]time.Duration(nil), samples[skip:]...)
	sort.Slice(tail, func(i, j int) bool { return tail[i] < tail[j] })
	return tail[len(tail)/2]
}

// leadRun runs one hand-built shard — never-started server, no hub, two
// unheard channels on a 5 ms grid — on sources following script, each
// waiting on a real timerfd. It returns once `chunks` chunks have been
// dispatched, with the server (its wheel is that one shard, still
// running), a stop function that ends the run and waits for it, and the
// log.
func leadRun(t *testing.T, chunks int, script func(*Server) tickScript) (*Server, func(), *leadRunLog) {
	t.Helper()
	if !haveTimerfd {
		t.Skip("the scripted source waits on a timerfd")
	}
	log := &leadRunLog{dispatched: make(chan struct{})}
	saved := newFdTicks
	var srv *Server
	var opened atomic.Int64
	newFdTicks = func() (tickSource, error) {
		inner, err := openTimerfd()
		if err != nil {
			return nil, err
		}
		opened.Add(1)
		return &scriptedTicks{tickScript: script(srv), inner: inner, run: log}, nil
	}
	t.Cleanup(func() { newFdTicks = saved })

	sh := &wheelShard{}
	seen := 0 // the hook runs on the shard goroutine only
	var err error
	srv, err = New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			e := sh.entries[i-1]
			due := time.Duration(n)*e.period + time.Duration(c)*e.spacing
			log.note(&log.late, time.Since(srv.epoch)-due)
			if seen++; seen == chunks {
				close(log.dispatched)
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.s = srv
	for i := 1; i <= 2; i++ {
		e := srv.newWheelEntry(0, i)
		e.heard = false // and with no hub to ask, it stays so: nothing is built or sent
		sh.entries = append(sh.entries, e)
	}
	srv.wheel = []*wheelShard{sh}
	srv.epoch = time.Now()
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		sh.run()
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(srv.stop)
			srv.stopWheel()
			select {
			case <-ended:
			case <-time.After(5 * time.Second):
				t.Error("the shard run did not end within 5 s of the stop")
			}
		})
	}
	t.Cleanup(stop)
	select {
	case <-log.dispatched:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d chunks not dispatched in 10 s", chunks)
	}
	if opened.Load() == 0 {
		t.Fatal("the seam was never used")
	}
	return srv, stop, log
}

// TestLeadNeverDispatchesEarly: whatever the source does — waits exactly,
// wakes slowly, returns a little or a lot sooner than asked, or fails
// mid-run and is replaced by the runtime timer — no chunk's dispatch
// begins before its grid instant, and the lead stays within its bound.
func TestLeadNeverDispatchesEarly(t *testing.T) {
	for name, sc := range map[string]tickScript{
		"exact":         {},
		"slow wake":     {late: 150 * time.Microsecond},
		"a little soon": {early: 100 * time.Microsecond},
		"far too soon":  {early: 3 * time.Millisecond},
		"demoted":       {failAfter: 12},
	} {
		t.Run(name, func(t *testing.T) {
			srv, _, log := leadRun(t, 120, func(*Server) tickScript { return sc })
			if early := log.earliest(); early > 0 {
				t.Errorf("a chunk was dispatched %v before its grid instant", early)
			}
			if lead := srv.wakeLead(); lead < 0 || lead > maxWakeLead {
				t.Errorf("lead = %v, outside [0, %v]", lead, maxWakeLead)
			}
			if want := sc.failAfter > 0; srv.tickDemoted.Load() != want {
				t.Errorf("tick source demoted = %v, want %v", !want, want)
			}
		})
	}
}

// TestLeadFollowsWakeLatency: the lead is 0 when the first wait is armed;
// with every wake scripted 250 µs slow (on top of what the timerfd takes)
// it settles at no less than that and no more than the bound; and the
// dispatches land that much nearer their instants — measured within the
// run, so a loaded host moves both sides: the median chunk is dispatched
// at least half the scripted lateness sooner after its instant than the
// median wait returned after its own.
func TestLeadFollowsWakeLatency(t *testing.T) {
	const late = 250 * time.Microsecond
	var firstLead atomic.Int64
	firstLead.Store(-1)
	srv, stop, log := leadRun(t, 300, func(srv *Server) tickScript {
		return tickScript{late: late, first: func() { firstLead.CompareAndSwap(-1, int64(srv.wakeLead())) }}
	})
	stop()
	if got := time.Duration(firstLead.Load()); got != 0 {
		t.Errorf("lead when the first wait was armed = %v, want 0", got)
	}
	if lead := srv.wakeLead(); lead < late || lead > maxWakeLead {
		t.Errorf("lead = %v after 300 chunks of wakes %v slow, want within [%v, %v]", lead, late, late, maxWakeLead)
	}
	// The first third of the run is the estimator converging.
	dispatch, wake := median(log.late, len(log.late)/3), median(log.wakes, len(log.wakes)/3)
	if dispatch > wake-late/2 {
		t.Errorf("median dispatch %v after its instant, median wake %v after its own: the lead recovered less than %v", dispatch, wake, late/2)
	}
	t.Logf("median wake %v late, median dispatch %v late, lead %v", wake, dispatch, srv.wakeLead())
}

// TestLeadCloseDuringHold: with every wait returning as soon as the hold
// may begin, the shard spends all its time holding on the clock; a stop
// still ends the run at once, because a hold is bounded by the lead.
func TestLeadCloseDuringHold(t *testing.T) {
	_, stop, log := leadRun(t, 60, func(*Server) tickScript { return tickScript{early: time.Hour} })
	if early := log.earliest(); early > 0 {
		t.Errorf("a chunk was dispatched %v before its grid instant", early)
	}
	began := time.Now()
	stop()
	if took := time.Since(began); took > time.Second {
		t.Errorf("the run took %v to end after the stop", took)
	}
}

// TestTickBudgetReported: a wheel with a listener fills the staging and
// send histograms, and /status carries the tick's budget — lead, staging,
// send — under its names beside the wake lateness.
func TestTickBudgetReported(t *testing.T) {
	ticks := make(chan struct{}, 1024)
	srv, err := New(Config{
		Scheme:       wheelScheme(t, 1, 3),
		Unit:         20 * time.Millisecond,
		BytesPerUnit: 4096,
		ChunkBytes:   1024,
		PacerHook: func(v, i int, n uint32, c int) {
			select {
			case ticks <- struct{}{}:
			default:
			}
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recv, err := mcast.NewReceiver()
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	if err := srv.Hub().Join(mcast.Group{Video: 0, Channel: 1}, recv.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ { // ~20 ticks of three channels, all after the join
		select {
		case <-ticks:
		case <-time.After(10 * time.Second):
			t.Fatal("the wheel stopped dispatching")
		}
	}
	snap := srv.Status()
	if snap.EgressSendP50Us <= 0 || snap.EgressSendP99Us < snap.EgressSendP50Us || snap.EgressStageP50Us <= 0 {
		t.Errorf("tick budget: stage p50 %v us, send p50 %v us, p99 %v us", snap.EgressStageP50Us, snap.EgressSendP50Us, snap.EgressSendP99Us)
	}
	if max := float64(maxWakeLead) / 1e3; snap.EgressWakeLeadUs < 0 || snap.EgressWakeLeadUs > max {
		t.Errorf("egressWakeLeadUs = %v, outside [0, %v]", snap.EgressWakeLeadUs, max)
	}
	doc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"egressWakeLeadUs":`, `"egressStageP50Us":`, `"egressSendP50Us":`, `"egressSendP99Us":`} {
		if !strings.Contains(string(doc), field) {
			t.Errorf("/status document lacks %s", field)
		}
	}
}
