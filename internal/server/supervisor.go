// The shard supervisor's backoff bounds and the graceful-shutdown path.
// The supervisor itself is runWheelShard (wheel.go).
package server

import (
	"context"
	"fmt"
	"net"
	"time"

	"skyscraper/internal/wire"
)

const (
	// pacerRestartBase and pacerRestartMax bound the supervisor's
	// exponential restart backoff. A shard that stays up longer than
	// pacerStableAfter earns its backoff reset.
	pacerRestartBase = 5 * time.Millisecond
	pacerRestartMax  = 500 * time.Millisecond
	pacerStableAfter = time.Second
)

// Drain shuts the server down gracefully: it stops accepting connections,
// notifies every control client with a server-initiated bye (so clients
// switch to degraded playback instead of retrying repairs against a dying
// server), lets in-flight control handlers finish, then closes. If ctx
// expires first, remaining handlers are cut off by Close and the context
// error is returned. Drain is idempotent and safe to race with Close.
func (s *Server) Drain(ctx context.Context) error {
	first := !s.draining.Swap(true)
	s.ln.Close() // stop accepting; acceptLoop exits

	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if first {
		s.cfg.Logf("server: draining: closed listener, notifying %d control clients", len(conns))
	}
	for _, c := range conns {
		// The bye is one write syscall, serialized with any in-flight
		// handler reply by the socket's write lock, so lines never
		// interleave. The immediate read deadline then wakes a handler
		// blocked in ReadControl; one mid-request keeps running and
		// finishes its reply under its own write deadline.
		_ = c.SetWriteDeadline(time.Now().Add(controlWriteTimeout))
		_ = wire.WriteControl(c, &wire.Control{Kind: wire.KindBye})
		_ = c.SetReadDeadline(time.Now())
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.Close()
	return err
}
