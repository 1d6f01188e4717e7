package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request share
// Request; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Replayed marks a span timed on its own right after its parent
	// returned, on the same query: the call happens inside the parent in
	// production, but the benchmark may only wrap public functions, so it is
	// re-run and re-timed outside. Its interval lies after its parent's.
	Replayed bool `json:"replayed,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer records spans in memory; the file is written once, at the end. A
// nil *tracer records nothing, which is the untraced replay the tracing
// overhead is measured against.
type tracer struct {
	epoch   time.Time
	request int
	spans   []span
}

// newTracer sizes the span buffer up front so that recording never pays for
// growing it.
func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int, replayed bool) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Request: t.request, ID: id, Parent: parent, Replayed: replayed})
	t.spans[id-1].StartNS = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children (parallel work)
// are counted once; a replayed child ran outside the parent's interval, so
// its whole duration is subtracted instead.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered := int64(0)
		reach := s.StartNS // everything before reach is already counted
		for _, k := range kids {
			if k.Replayed {
				covered += k.EndNS - k.StartNS
				continue
			}
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.duration() - time.Duration(covered)
	}
	return self
}

// spanTotal sums one name's span durations, self times and count.
type spanTotal struct {
	total time.Duration
	self  time.Duration
	n     int
}

func totalsByName(spans []span) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.total += s.duration()
		t.self += self[s.ID]
		t.n++
		out[s.Name] = t
	}
	return out
}

// meanUS is the span's mean duration in microseconds, selfUS its mean self
// time; both 0 when the layer never ran.
func (t spanTotal) meanUS() float64 { return perSpanUS(t.total, t.n) }
func (t spanTotal) selfUS() float64 { return perSpanUS(t.self, t.n) }

func perSpanUS(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(time.Microsecond)
}
