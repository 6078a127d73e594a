package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// Procs tracks the children a run has started, so an orchestrator error
// or signal can kill every one of them (and whatever they started).
type Procs struct {
	mu   sync.Mutex
	live map[*Child]struct{}
}

// NewProcs returns an empty registry.
func NewProcs() *Procs { return &Procs{live: map[*Child]struct{}{}} }

// KillAll kills every live child's process group and waits for each.
func (p *Procs) KillAll() {
	p.mu.Lock()
	live := make([]*Child, 0, len(p.live))
	for c := range p.live {
		live = append(live, c)
	}
	p.mu.Unlock()
	for _, c := range live {
		c.Kill()
	}
}

// Child is one re-exec of this binary in a role.
type Child struct {
	role  string
	procs *Procs
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	once  sync.Once
	werr  error
}

// Spawn starts the running executable as `-role role` in its own process
// group with GOMAXPROCS pinned, and hands it cfg as one JSON line.
func (p *Procs) Spawn(role string, gomaxprocs int, cfg any) (*Child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", role)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("harness: starting %s child: %w", role, err)
	}
	c := &Child{role: role, procs: p, cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<16)}
	p.mu.Lock()
	p.live[c] = struct{}{}
	p.mu.Unlock()
	line, err := json.Marshal(cfg)
	if err == nil {
		_, err = stdin.Write(append(line, '\n'))
	}
	if err != nil {
		c.Kill()
		return nil, fmt.Errorf("harness: configuring %s child: %w", role, err)
	}
	return c, nil
}

// Send writes one command line.
func (c *Child) Send(cmd string) error {
	_, err := io.WriteString(c.stdin, cmd+"\n")
	return err
}

// Read decodes the child's next JSON line into v, giving up after timeout
// (the child is killed: a reader is still parked on its pipe).
func (c *Child) Read(v any, timeout time.Duration) error {
	type result struct {
		line []byte
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		line, err := c.out.ReadBytes('\n')
		ch <- result{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return fmt.Errorf("harness: %s child closed its output: %w", c.role, r.err)
		}
		if err := json.Unmarshal(r.line, v); err != nil {
			return fmt.Errorf("harness: %s child answered %q: %w", c.role, r.line, err)
		}
		return nil
	case <-time.After(timeout):
		c.Kill()
		<-ch
		return fmt.Errorf("harness: %s child silent for %v", c.role, timeout)
	}
}

// Wait closes the child's stdin, waits for it to exit and returns the
// kernel's account of it.
func (c *Child) Wait() (Rusage, error) {
	c.once.Do(func() {
		c.stdin.Close()
		c.werr = c.cmd.Wait()
		c.procs.mu.Lock()
		delete(c.procs.live, c)
		c.procs.mu.Unlock()
	})
	var ru Rusage
	if ps := c.cmd.ProcessState; ps != nil {
		if st, ok := ps.SysUsage().(*syscall.Rusage); ok && st != nil {
			ru = Rusage{UserNs: st.Utime.Nano(), SysNs: st.Stime.Nano(), MaxRSSKiB: int64(st.Maxrss)}
		}
	}
	if c.werr != nil {
		return ru, fmt.Errorf("harness: %s child: %w", c.role, c.werr)
	}
	return ru, nil
}

// Kill kills the child's process group and reaps it.
func (c *Child) Kill() {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // already gone is fine
	}
	_, _ = c.Wait() // the exit status of a killed child carries nothing
}
