package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// a name, start and end offsets from the tracer's epoch, the span that
// caused it (0 for a root), and the counts measured at the same
// boundary (instructions, bytes, ...).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
	start  time.Time
	tracer *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns a nil span and every span method is a
// no-op, so the measured paths pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, start: time.Now(), tracer: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tracer.mu.Lock()
	s.Start = float64(s.start.Sub(s.tracer.epoch).Nanoseconds()) / 1e3
	s.End = float64(now.Sub(s.tracer.epoch).Nanoseconds()) / 1e3
	s.tracer.mu.Unlock()
}

// set records a count measured at the span's boundary.
func (s *span) set(key string, v float64) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
	s.tracer.mu.Unlock()
}

// rename changes a span's name once its outcome is known (a baseline
// call that recorded versus one that replayed a cached trace).
func (s *span) rename(name string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Name = name
	s.tracer.mu.Unlock()
}

// closed returns the finished spans with the given name.
func (t *tracer) closed(name string) []*span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the named spans' durations in seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closed(name) {
		out = append(out, (s.End-s.Start)/1e6)
	}
	return out
}

// attrSum totals one attribute over the named spans.
func (t *tracer) attrSum(name, key string) float64 {
	var sum float64
	for _, s := range t.closed(name) {
		sum += s.Attrs[key]
	}
	return sum
}

// write stores the spans, with the run's identity and its traced
// end-to-end figures, as one JSON document.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans}
	for k, v := range header {
		doc[k] = v
	}
	b, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
