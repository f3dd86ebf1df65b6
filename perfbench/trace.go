package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer of the repository.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // spans of one workload operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Spans are recorded
// only from the goroutine driving the workload, so it needs no lock. A
// nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op returns a fresh operation id (0 from a nil tracer).
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// begin opens a span and returns its id, which end closes.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// medianMs is the median length in milliseconds of the named spans
// recorded at index from or later.
func (t *tracer) medianMs(name string, from int) (float64, error) {
	var d []time.Duration
	for _, s := range t.spans[from:] {
		if s.Name == name {
			d = append(d, time.Duration(s.End-s.Start))
		}
	}
	if len(d) == 0 {
		return 0, fmt.Errorf("no %q spans recorded", name)
	}
	return medianDur(d).Seconds() * 1e3, nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
