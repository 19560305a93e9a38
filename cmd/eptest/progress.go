package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core/sched"
)

// isTerminal reports whether w is an interactive terminal — the gate
// between the live progress renderer and the plain log lines. The
// char-device heuristic needs no syscall bindings and is exact for the
// cases that matter here: pipes, files and CI redirections are not
// char devices, real ttys are.
func isTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	return fi.Mode()&os.ModeCharDevice != 0
}

// progressInterval is the shortest gap between two repaints of the
// status line.
const progressInterval = 100 * time.Millisecond

// progressRenderer keeps one live status line for `eptest -all` on a
// terminal. Handle runs on the dispatcher's workers under its emit lock,
// so it only bumps counters; a ticker goroutine repaints the line in
// place, and Close leaves the final line above the suite report.
type progressRenderer struct {
	w         io.Writer
	campaigns int

	// The counts on the line, bumped by Handle and read by paint.
	done, cached, failed, runs, total atomic.Int64

	// Close closes stop; the ticker closes stopped on its way out.
	stop, stopped chan struct{}
}

// newProgressRenderer starts the repaint ticker for a suite of
// campaigns jobs.
func newProgressRenderer(w io.Writer, campaigns int) *progressRenderer {
	p := &progressRenderer{w: w, campaigns: campaigns, stop: make(chan struct{}), stopped: make(chan struct{})}
	go p.tick()
	return p
}

// Handle consumes one suite event: a few atomic adds, with no
// formatting, I/O or allocation.
func (p *progressRenderer) Handle(ev sched.Event) {
	switch ev.Kind {
	case sched.EventPlanned:
		p.total.Add(int64(ev.Total))
	case sched.EventProgress:
		p.runs.Add(1)
	case sched.EventDone:
		switch {
		case ev.Err != nil:
			p.failed.Add(1)
		case ev.Cached:
			p.cached.Add(1)
			p.runs.Add(int64(ev.Done))
		}
		p.done.Add(1)
	}
}

// Close stops the ticker and paints the final line plus the newline
// that leaves the cursor where the suite report begins.
func (p *progressRenderer) Close() {
	close(p.stop)
	<-p.stopped
	p.paint("\n")
}

func (p *progressRenderer) tick() {
	defer close(p.stopped)
	t := time.NewTicker(progressInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.paint("")
		}
	}
}

// paint rewrites the status line in place with one Write.
func (p *progressRenderer) paint(end string) {
	fmt.Fprintf(p.w, "\r\x1b[2Kcampaigns %d/%d (%d cached, %d failed)  runs %d/%d%s",
		p.done.Load(), p.campaigns, p.cached.Load(), p.failed.Load(), p.runs.Load(), p.total.Load(), end)
}
