package viewer

import "time"

// PauseAt makes m's audience loop sleep d once, at its first wake after
// at: a host pause as the loop sees it, while the socket keeps filling
// and every instant the loop waits for goes by. paused receives the
// instant the sleep ended. Call it before Run.
func PauseAt(m *Mux, at time.Time, d time.Duration, paused chan<- time.Time) {
	m.inbox <- func(time.Time) {
		time.AfterFunc(time.Until(at), func() {
			m.post(func(time.Time) {
				time.Sleep(d)
				paused <- time.Now()
			})
		})
	}
}

// queued is how many requests wait for the control goroutine.
func (m *Mux) queued() int {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	return len(m.outbox)
}

// serveOne runs the oldest request waiting for the control goroutine on
// the calling goroutine, as that goroutine would, and reports whether
// there was one.
func (m *Mux) serveOne() bool {
	m.outMu.Lock()
	if len(m.outbox) == 0 {
		m.outMu.Unlock()
		return false
	}
	fn := m.outbox[0]
	m.outbox = m.outbox[1:]
	m.outMu.Unlock()
	fn()
	return true
}
