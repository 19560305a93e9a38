package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one pass share Pass;
// Parent links a span to the call that caused it.
type span struct {
	ID, Parent, Pass int64
	Name             string
	Start, End       time.Duration // since the tracer started
	// Width is the number of lanes this span's children run on: 1 for a
	// call whose children run one after another, the worker count for a
	// dispatcher whose children run on its workers concurrently.
	Width int
	// Async marks a span recorded on a goroutine outside the pass's
	// lanes (a claim feeder, an HTTP handler). It overlaps lane time, so
	// it feeds its layer's latency metrics but not the self-time table.
	Async bool
	Tid   int
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// layer is the module a span belongs to: its name up to the first dot.
// A root span (the pass itself) owns the time no layer accounts for.
func (s *span) layer() string {
	if s.Parent == 0 {
		return "unattributed"
	}
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer and a
// nil *active are valid and record nothing.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	nextID int64
	lanes  []bool // lane tids in use by open worker-side spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span.
type active struct {
	t     *tracer
	s     span
	start time.Time
	lane  bool // holds a lane tid to release at end
}

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// root opens the span that covers one whole pass.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	id := t.id()
	return &active{t: t, start: time.Now(), s: span{ID: id, Pass: id, Name: name, Width: 1}}
}

// child opens a span on the caller's goroutine, one after another with
// its siblings.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, start: time.Now(), s: span{ID: a.t.id(), Parent: a.s.ID, Pass: a.s.Pass, Name: name, Width: 1, Tid: a.s.Tid}}
}

// fanout opens a span whose children run on width lanes at once.
func (a *active) fanout(name string, width int) *active {
	c := a.child(name)
	if c != nil {
		c.s.Width = width
	}
	return c
}

// onLane opens a child of a fan-out span from one of its lane
// goroutines; it draws a free trace row so concurrent lanes render side
// by side.
func (a *active) onLane(name string) *active {
	c := a.child(name)
	if c == nil {
		return nil
	}
	t := a.t
	t.mu.Lock()
	i := 0
	for i < len(t.lanes) && t.lanes[i] {
		i++
	}
	if i == len(t.lanes) {
		t.lanes = append(t.lanes, false)
	}
	t.lanes[i] = true
	t.mu.Unlock()
	c.s.Tid = 1 + i
	c.lane = true
	return c
}

// async opens a child recorded from a goroutine outside the lanes.
func (a *active) async(name string) *active {
	c := a.child(name)
	if c != nil {
		c.s.Async = true
		c.s.Tid = 100
	}
	return c
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.s.Start = a.start.Sub(a.t.t0)
	a.s.End = now.Sub(a.t.t0)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	if a.lane {
		a.t.lanes[a.s.Tid-1] = false
	}
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// record adds a finished child span measured by someone else, such as
// the phase timings inject.ExecPlan.RunOneObserved reports.
func (a *active) record(name string, start time.Time, d time.Duration) {
	if a == nil {
		return
	}
	s := span{ID: a.t.id(), Parent: a.s.ID, Pass: a.s.Pass, Name: name, Width: 1, Tid: a.s.Tid,
		Start: start.Sub(a.t.t0), End: start.Add(d).Sub(a.t.t0)}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes splits each pass's wall time across layers. A span's self
// time is its weighted duration minus its children's weighted
// durations, where a child of a span with Width w weighs 1/w of its
// parent: w busy worker lanes fill one unit of the parent's wall time.
// The self times of one pass therefore sum to the pass's wall time
// exactly; the root's share is the unattributed remainder. Async spans
// and their descendants take no part.
func selfTimes(spans []span) map[int64]map[string]time.Duration {
	kids := make(map[int64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 && !s.Async {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]map[string]time.Duration)
	var walk func(s *span, weight float64)
	walk = func(s *span, weight float64) {
		self := weight * float64(s.dur())
		cw := weight / float64(max(s.Width, 1))
		for _, c := range kids[s.ID] {
			self -= cw * float64(c.dur())
			walk(c, cw)
		}
		m := out[s.Pass]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Pass] = m
		}
		m[s.layer()] += time.Duration(self)
	}
	for i := range spans {
		if spans[i].Parent == 0 {
			walk(&spans[i], 1)
		}
	}
	return out
}

// roots returns the root spans named name, in start order.
func roots(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == 0 && s.Name == name {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durationsUS returns the durations, in microseconds, of every span
// named name within the given passes.
func durationsUS(spans []span, passes map[int64]bool, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name && passes[spans[i].Pass] {
			out = append(out, us(spans[i].dur()))
		}
	}
	return out
}

// countPerPass is the median, over the given passes, of the number of
// spans named name in each.
func countPerPass(spans []span, passes map[int64]bool, name string) float64 {
	n := make(map[int64]int, len(passes))
	for p := range passes {
		n[p] = 0
	}
	for i := range spans {
		if spans[i].Name == name && passes[spans[i].Pass] {
			n[spans[i].Pass]++
		}
	}
	xs := make([]float64, 0, len(n))
	for _, c := range n {
		xs = append(xs, float64(c))
	}
	return median(xs)
}

// selfTable averages the per-layer self times over the given root
// spans and prints them, largest first, with the mean wall time they
// sum to. It returns the mean per layer in milliseconds.
func selfTable(w io.Writer, title string, self map[int64]map[string]time.Duration, passRoots []span) map[string]float64 {
	sum := make(map[string]float64)
	wall := 0.0
	for _, r := range passRoots {
		wall += ms(r.dur())
		for layer, d := range self[r.Pass] {
			sum[layer] += ms(d)
		}
	}
	n := float64(max(len(passRoots), 1))
	wall /= n
	layers := make([]string, 0, len(sum))
	total := 0.0
	for l := range sum {
		sum[l] /= n
		total += sum[l]
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return sum[layers[i]] > sum[layers[j]] })
	fmt.Fprintf(w, "%s: self time per layer, mean of %d pass(es)\n", title, len(passRoots))
	for _, l := range layers {
		share := 0.0
		if wall > 0 {
			share = 100 * sum[l] / wall
		}
		fmt.Fprintf(w, "  %-14s %10.3f ms  %5.1f%%\n", l, sum[l], share)
	}
	fmt.Fprintf(w, "  %-14s %10.3f ms  (pass wall %.3f ms)\n", "sum", total, wall)
	return sum
}

// writeChrome writes the spans as a Chrome trace_event file, readable
// in chrome://tracing or Perfetto. Each event carries its span id,
// parent, pass and self time in args.
func writeChrome(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, event{
			Name: s.Name, Cat: s.layer(), Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "pass": s.Pass, "width": s.Width, "async": s.Async},
		})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
