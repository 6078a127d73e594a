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
