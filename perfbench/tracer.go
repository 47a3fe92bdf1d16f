package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own code around the call into the layer.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`     // the experiment run or request the span belongs to
	Pass   int    `json:"pass"`   // measurement pass the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the span's count of done work: edges for "gen", steps for
	// "walk", bytes for "encode", units for "run".
	Work int64 `json:"work,omitempty"`
	// Lanes is the number of trials a batched walk call ran (0 for a
	// sequential call); Censored counts walks that spent their budget.
	Lanes    int `json:"lanes,omitempty"`
	Censored int `json:"censored,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory; they are written out once, when the
// benchmark ends. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	pass  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its index, or -1 on a nil tracer.
func (t *tracer) open(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Pass: t.pass, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// close ends span i, adding work to its count.
func (t *tracer) close(i int, work int64) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Work += work
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.Pass = t.pass
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setPass tags the spans recorded from now on with pass p.
func (t *tracer) setPass(p int) {
	t.mu.Lock()
	t.pass = p
	t.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (sweep workers run in parallel); overlapping parts count once.
func selfTimes(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = float64(s.End-s.Start-covered(s.Start, s.End, children[i])) / 1e9
	}
	return self
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, v := range iv {
		a := max(v[0], end)
		if v[1] > a {
			total += v[1] - a
			end = v[1]
		}
	}
	return total
}

// write stores the spans, each with its self time, as JSON at path.
func (t *tracer) write(path string) error {
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]out, len(t.spans))
	for i, s := range t.spans {
		rows[i] = out{s, int64(self[i] * 1e9)}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
