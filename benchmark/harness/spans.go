package harness

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call into a layer: what ran, when (unix nanoseconds,
// so spans from the three processes share a clock), and which span caused
// it. Spans of one probe session or audience wave share TraceID.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"` // 0: root
	TraceID string `json:"trace"`
	Role    string `json:"role"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced run: every method is a no-op, so call sites need no guard.
type Recorder struct {
	role string
	mu   sync.Mutex
	sp   []Span
}

// NewRecorder returns a recorder whose spans are labelled with role.
func NewRecorder(role string) *Recorder { return &Recorder{role: role} }

// Start opens a span and returns its id (0 from a nil recorder).
func (r *Recorder) Start(name, traceID string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sp = append(r.sp, Span{ID: len(r.sp) + 1, Parent: parent, TraceID: traceID, Role: r.role, Name: name, Start: now})
	return len(r.sp)
}

// End closes the span Start returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.sp[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.sp...)
}

// Rebase shifts span ids (and parents) by off, so spans from several
// recorders can share one file without colliding.
func Rebase(spans []Span, off int) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		out[i] = s
	}
	return out
}

// SelfTimes returns each span's duration minus the part of that interval
// its direct children cover (children clipped to the parent and merged
// where they overlap).
func SelfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		// Insertion sort by start: sibling lists are short.
		for i := 1; i < len(ks); i++ {
			for j := i; j > 0 && ks[j].Start < ks[j-1].Start; j-- {
				ks[j], ks[j-1] = ks[j-1], ks[j]
			}
		}
		edge := s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// WriteSpans writes one JSON object per line.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
