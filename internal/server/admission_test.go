package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/metrics"
	"skyscraper/internal/viewer"
)

// TestNackTableSweepAtCap proves a long-running server's re-send table
// cannot grow without bound: reaching resendTableCap sweeps expired
// windows on the next insert, live windows survive the sweep, a table of
// live windows is not swept again until it has doubled, and answers stay
// correct across it — a swept chunk opens a fresh window.
func TestNackTableSweepAtCap(t *testing.T) {
	tbl := newResendTable(time.Second)
	base := time.Unix(1000, 0)
	fresh := func(k resendKey, now time.Time) bool {
		_, resend := tbl.note(k, now, nil, 1024)
		return resend
	}

	// Fill to the cap with distinct chunks: each first NACK re-sends.
	for i := 0; i < resendTableCap; i++ {
		if !fresh(resendKey{chunk: i}, base) {
			t.Fatalf("fill %d: first NACK absorbed, want a re-send", i)
		}
	}

	// At the cap with every window still live, the sweep reclaims nothing
	// — the table grows past the cap rather than dropping an active
	// window, and a live window still absorbs its NACKs.
	mid := base.Add(500 * time.Millisecond)
	if !fresh(resendKey{chunk: resendTableCap}, mid) {
		t.Fatal("insert at cap: first NACK absorbed, want a re-send")
	}
	if len(tbl.sent) != resendTableCap+1 {
		t.Fatalf("live windows swept: %d windows, want %d", len(tbl.sent), resendTableCap+1)
	}
	if fresh(resendKey{chunk: 0}, mid) {
		t.Fatal("NACK inside a live window re-sent again")
	}

	// Past the window, the table grows to twice what the last sweep left
	// before the next insert sweeps; that insert keeps only live windows.
	later := base.Add(2 * time.Second)
	for i := 0; len(tbl.sent) < 2*resendTableCap; i++ {
		fresh(resendKey{video: 1, chunk: i}, later)
	}
	live := 2*resendTableCap - (resendTableCap + 1)
	fresh(resendKey{video: 1, chunk: -1}, later)
	if len(tbl.sent) != live+1 {
		t.Fatalf("after sweep: %d windows, want %d", len(tbl.sent), live+1)
	}
	// The swept chunk 0 opens a fresh window, which then absorbs.
	if !fresh(resendKey{chunk: 0}, later) {
		t.Fatal("swept chunk: NACK absorbed, want a fresh re-send")
	}
	if fresh(resendKey{chunk: 0}, later.Add(100*time.Millisecond)) {
		t.Fatal("second NACK in the fresh window re-sent again")
	}
}

// TestNackTableWindowExpiry: a window is replaced in place once it has
// expired, even far below the cap, so a re-send that was itself lost is
// asked for — and sent — again.
func TestNackTableWindowExpiry(t *testing.T) {
	tbl := newResendTable(time.Second)
	base := time.Unix(2000, 0)
	k := resendKey{video: 3, channel: 1, seq: 9, chunk: 4}
	for _, tc := range []struct {
		after  time.Duration
		resend bool
	}{
		{0, true},                       // first NACK
		{time.Second, false},            // at the window's edge
		{1500 * time.Millisecond, true}, // expired: a fresh window
		{2 * time.Second, false},
	} {
		accept, resend := tbl.note(k, base.Add(tc.after), nil, 1024)
		if !accept || resend != tc.resend {
			t.Errorf("NACK at +%v: accept %v resend %v, want accept true resend %v", tc.after, accept, resend, tc.resend)
		}
	}
}

// TestNackTableBudget: a chunk the repair budget refuses is not accepted
// and opens no window, so the next NACK for it is not told a re-send is in
// flight; a NACK that rides an open window spends no budget.
func TestNackTableBudget(t *testing.T) {
	tbl := newResendTable(time.Second)
	now := time.Unix(3000, 0)
	starved := metrics.NewTokenBucket(1, 1)
	k := resendKey{channel: 2, seq: 1, chunk: 3}
	if accept, resend := tbl.note(k, now, starved, 1024); accept || resend {
		t.Fatalf("over budget: accept %v resend %v, want neither", accept, resend)
	}
	if len(tbl.sent) != 0 {
		t.Fatalf("refused chunk opened %d windows", len(tbl.sent))
	}
	if accept, resend := tbl.note(k, now, nil, 1024); !accept || !resend {
		t.Fatalf("after a refusal: accept %v resend %v, want a re-send", accept, resend)
	}
	if accept, resend := tbl.note(k, now, starved, 1024); !accept || resend {
		t.Fatalf("inside the window over budget: accept %v resend %v, want accepted without a re-send", accept, resend)
	}
}

// TestNackTableConcurrentOneResend: control handlers note NACKs from
// their own goroutines; however many report one key at once, exactly one
// is told to re-send.
func TestNackTableConcurrentOneResend(t *testing.T) {
	tbl := newResendTable(time.Second)
	now := time.Unix(4000, 0)
	var resends atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := 0; chunk < 100; chunk++ {
				if _, resend := tbl.note(resendKey{seq: 1, chunk: chunk}, now, nil, 1024); resend {
					resends.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := resends.Load(); got != 100 {
		t.Errorf("%d re-sends for 100 chunks NACKed by 8 goroutines, want 100", got)
	}
}

// TestNackRepetitionLive pins which repetitions the server answers NACKs
// for: from one unit before a repetition begins until nackLateUnits past
// its end — and nackLateUnits outlasts a viewer's receive cutoff.
func TestNackRepetitionLive(t *testing.T) {
	if nackLateUnits <= viewer.DefaultGraceUnits {
		t.Fatalf("nackLateUnits = %d does not outlast the viewer's %d-unit receive grace", nackLateUnits, viewer.DefaultGraceUnits)
	}
	const u = time.Second
	for _, tc := range []struct {
		seq     uint32
		period  time.Duration
		elapsed time.Duration
		live    bool
	}{
		{0, u, 0, true},
		{1, u, 0, true},                          // a unit early: clock skew
		{2, u, 0, false},                         // not begun
		{12, u, 20500 * time.Millisecond, true},  // ended 7.5 units ago
		{11, u, 20500 * time.Millisecond, false}, // ended 8.5 units ago
		{21, u, 20500 * time.Millisecond, true},
		{22, u, 20500 * time.Millisecond, false},
		{3, 52 * u, 200 * u, true},  // the current repetition
		{2, 52 * u, 200 * u, false}, // ended 44 units ago
		{1 << 31, 52 * u, 200 * u, false},
		{^uint32(0), u, 0, false},
	} {
		if got := repetitionLive(tc.seq, tc.period, u, tc.elapsed); got != tc.live {
			t.Errorf("repetitionLive(seq %d, period %v, elapsed %v) = %v, want %v", tc.seq, tc.period, tc.elapsed, got, tc.live)
		}
	}
}
