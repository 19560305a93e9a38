package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/sched"
)

// frameWriter records every Write the renderer makes; each frame is
// one Write.
type frameWriter struct {
	mu     sync.Mutex
	frames []string
}

func (w *frameWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.frames = append(w.frames, string(b))
	return len(b), nil
}

func (w *frameWriter) snapshot() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.frames...)
}

// campaignKind is how a campaign ends in the renderer's counters.
type campaignKind int

const (
	executed campaignKind = iota
	cached
	failed
)

// campaignEvents is the event sequence the dispatcher emits for one
// campaign of runs injection runs.
func campaignEvents(kind campaignKind, runs int) []sched.Event {
	job := sched.Job{Name: "alpha", Variant: "vulnerable"}
	switch kind {
	case cached:
		return []sched.Event{
			{Kind: sched.EventPlanned, Job: job, Total: runs},
			{Kind: sched.EventDone, Job: job, Done: runs, Total: runs, Cached: true},
		}
	case failed:
		return []sched.Event{{Kind: sched.EventDone, Job: job, Err: errors.New("no world factory")}}
	}
	evs := []sched.Event{{Kind: sched.EventPlanned, Job: job, Total: runs}}
	for d := 1; d <= runs; d++ {
		evs = append(evs, sched.Event{Kind: sched.EventProgress, Job: job, Done: d, Total: runs})
	}
	return append(evs, sched.Event{Kind: sched.EventDone, Job: job, Done: runs, Total: runs})
}

// statusLine is the final frame for the given counts.
func statusLine(done, campaigns, cached, failed, runs, total int) string {
	var b strings.Builder
	p := &progressRenderer{w: &b, campaigns: campaigns}
	p.done.Store(int64(done))
	p.cached.Store(int64(cached))
	p.failed.Store(int64(failed))
	p.runs.Store(int64(runs))
	p.total.Store(int64(total))
	p.paint("\n")
	return b.String()
}

// TestProgressHandleAllocs: Handle runs under the dispatcher's emit
// lock, so it must not allocate for any event kind. Not parallel:
// AllocsPerRun reads process-wide allocation counters.
func TestProgressHandleAllocs(t *testing.T) {
	var p progressRenderer
	for _, kind := range []campaignKind{executed, cached, failed} {
		for _, ev := range campaignEvents(kind, 1) {
			if got := testing.AllocsPerRun(1000, func() { p.Handle(ev) }); got != 0 {
				t.Errorf("Handle(%v, cached=%v, err=%v) allocates %v times", ev.Kind, ev.Cached, ev.Err, got)
			}
		}
	}
}

// TestProgressHandleNoWrites: only the ticker and Close paint; no
// event writes anything.
func TestProgressHandleNoWrites(t *testing.T) {
	t.Parallel()
	var w frameWriter
	p := &progressRenderer{w: &w, campaigns: 3}
	for _, kind := range []campaignKind{executed, cached, failed} {
		for _, ev := range campaignEvents(kind, 5) {
			p.Handle(ev)
		}
	}
	if got := w.snapshot(); len(got) != 0 {
		t.Errorf("Handle wrote %d frame(s): %q", len(got), got)
	}
}

// TestProgressRendererFrames: a burst of 10,000 events is one frame,
// the final one, with exact counts — cached campaigns count their
// replayed runs. A frame more is allowed only per elapsed interval.
func TestProgressRendererFrames(t *testing.T) {
	t.Parallel()
	// 10 failed + 35 cached × 2 + 80 executed × (122 + 2) = 10,000 events.
	var evs []sched.Event
	for range 10 {
		evs = append(evs, campaignEvents(failed, 0)...)
	}
	for range 35 {
		evs = append(evs, campaignEvents(cached, 40)...)
	}
	for range 80 {
		evs = append(evs, campaignEvents(executed, 122)...)
	}
	if len(evs) != 10000 {
		t.Fatalf("burst has %d events, want 10000", len(evs))
	}

	var w frameWriter
	start := time.Now()
	p := newProgressRenderer(&w, 125)
	for _, ev := range evs {
		p.Handle(ev)
	}
	p.Close()
	elapsed := time.Since(start)

	frames := w.snapshot()
	want := statusLine(125, 125, 35, 10, 35*40+80*122, 35*40+80*122)
	if want != "\r\x1b[2Kcampaigns 125/125 (35 cached, 10 failed)  runs 11160/11160\n" {
		t.Fatalf("status line = %q", want)
	}
	if len(frames) == 0 || frames[len(frames)-1] != want {
		t.Fatalf("final frame = %q, want %q", frames, want)
	}
	limit := 1 + int(elapsed/progressInterval)
	if len(frames) > limit {
		t.Errorf("%d frames in %v, want at most %d", len(frames), elapsed, limit)
	}
	for _, f := range frames[:len(frames)-1] {
		if !strings.HasPrefix(f, "\r\x1b[2Kcampaigns ") || strings.Contains(f, "\n") {
			t.Errorf("ticker frame %q does not repaint the line in place", f)
		}
	}
}

// TestProgressRendererFailure counts a planning failure as a done,
// failed campaign; its error is the clusters section's to report.
func TestProgressRendererFailure(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	p := newProgressRenderer(&out, 2)
	for _, ev := range campaignEvents(failed, 0) {
		p.Handle(ev)
	}
	p.Close()
	if want := statusLine(1, 2, 0, 1, 0, 0); out.String() != want {
		t.Errorf("failure frame = %q, want %q", out.String(), want)
	}
}

// TestProgressRendererCloseWithoutEvents paints one empty line so the
// report never collides with half-initialised terminal state.
func TestProgressRendererCloseWithoutEvents(t *testing.T) {
	t.Parallel()
	var out bytes.Buffer
	p := newProgressRenderer(&out, 2)
	p.Close()
	if want := "\r\x1b[2Kcampaigns 0/2 (0 cached, 0 failed)  runs 0/0\n"; out.String() != want {
		t.Errorf("close painted %q, want %q", out.String(), want)
	}
}

// TestProgressRendererConcurrent: the dispatcher's workers call Handle
// from many goroutines; the final counts are exact.
func TestProgressRendererConcurrent(t *testing.T) {
	t.Parallel()
	var w frameWriter
	p := newProgressRenderer(&w, 8*3)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, kind := range []campaignKind{executed, cached, failed} {
				for _, ev := range campaignEvents(kind, 50) {
					p.Handle(ev)
				}
			}
		}()
	}
	wg.Wait()
	p.Close()
	frames := w.snapshot()
	if want := statusLine(24, 24, 8, 8, 8*100, 8*100); frames[len(frames)-1] != want {
		t.Errorf("final frame = %q, want %q", frames[len(frames)-1], want)
	}
}

// TestSuiteProgressLine runs the lpr matrix slice through runSuite with
// and without the renderer: the report after the renderer's final line
// is byte-identical, and the line repaints at most once per interval.
func TestSuiteProgressLine(t *testing.T) {
	t.Parallel()
	cfg := suiteConfig{workers: 2, matrix: true, filter: "lpr/*"}
	var plain, errb bytes.Buffer
	if code := runSuite(cfg, &plain, &errb); code != 0 {
		t.Fatalf("tty off: exit %d: %s", code, errb.String())
	}

	cfg.tty = true
	var w frameWriter
	start := time.Now()
	if code := runSuite(cfg, &w, &errb); code != 0 {
		t.Fatalf("tty on: exit %d: %s", code, errb.String())
	}
	wall := time.Since(start)

	out := strings.Join(w.snapshot(), "")
	line, report, ok := strings.Cut(out, "\n")
	if !ok || report != plain.String() {
		t.Fatalf("report after the status line differs from the tty-off report:\n--- tty on\n%s\n--- tty off\n%s", report, plain.String())
	}
	frames := strings.Count(line, "\r\x1b[2K")
	if limit := 1 + int(wall/progressInterval); frames < 1 || frames > limit {
		t.Errorf("renderer wrote %d frames in %v, want 1..%d", frames, wall, limit)
	}
	final := line[strings.LastIndex(line, "\r"):]
	runs, ok := strings.CutPrefix(final, "\r\x1b[2Kcampaigns 48/48 (0 cached, 0 failed)  runs ")
	if done, total, _ := strings.Cut(runs, "/"); !ok || done == "0" || done != total {
		t.Errorf("final status line = %q", final)
	}
}

// TestIsTerminal pins the renderer gate: buffers and regular files are
// not terminals, so piped and CI output keeps the plain log lines.
func TestIsTerminal(t *testing.T) {
	t.Parallel()
	if isTerminal(&bytes.Buffer{}) {
		t.Error("a bytes.Buffer is not a terminal")
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if isTerminal(f) {
		t.Error("a regular file is not a terminal")
	}
}
