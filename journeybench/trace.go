package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Spans of one journey share its agent name as trace id.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Trace   string `json:"trace,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip the bookkeeping.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	return int(t.ids.Add(1))
}

func (t *tracer) record(name, trace string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.recordID(t.newID(), name, trace, parent, start, end)
}

func (t *tracer) recordID(id int, name, trace string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Trace: trace,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// spanSummary aggregates the spans of one name: how many, their total
// duration, and their self time (duration minus the part of it that
// child spans cover).
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) summarize() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanSummary)
	for _, s := range t.spans {
		d := s.EndNs - s.StartNs
		sum := out[s.Name]
		sum.Count++
		sum.TotalMs += float64(d) / 1e6
		sum.SelfMs += float64(d-covered(s, children[s.ID])) / 1e6
		out[s.Name] = sum
	}
	return out
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total, end int64
	end = parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, end), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Provenance provenance             `json:"provenance"`
	Workload   string                 `json:"workload"`
	PerLayer   map[string]metric      `json:"per_layer"`
	SelfTime   map[string]spanSummary `json:"self_time"`
	Spans      []span                 `json:"spans"`
}

func writeTrace(path string, f traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
