package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's exported functions; the program under test is not
// instrumented. They are held in memory and written once at exit.

// span is one timed call. Parent is the index of the span that caused
// it (-1 for an op's root span); spans of one op share Op.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	// Reported marks a span whose duration the program under test
	// reported (a server-side stage span of a job): its length is
	// measured, its position inside the parent is not.
	Reported bool `json:"reported,omitempty"`
}

// tracer collects spans; safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp hands out a fresh op identifier.
func (t *tracer) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracer) append(name string, parent, op int, start, end time.Time, reported bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Op: op, Reported: reported,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	return t.append(name, parent, op, start, end, false)
}

// addReported attaches a span whose duration the program reported,
// laid out from the given start inside its parent.
func (t *tracer) addReported(name string, parent, op int, start time.Time, d time.Duration) {
	t.append(name, parent, op, start, start.Add(d), true)
}

// begin opens a span and returns its index; finish closes it.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

func (t *tracer) finish(id int) {
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.finish(id)
}

// durations returns the length in seconds of every span called name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfSeconds returns, per span name, the total self time: a span's
// duration minus the part of it its direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		self := s.EndNS - s.StartNS - child[i]
		if self < 0 {
			self = 0 // reported children can overlap their parent's clock by rounding
		}
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
