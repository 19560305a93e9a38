package inject_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/lpr"
	"repro/internal/core/inject"
)

var sinkInjection inject.Injection

// runOneAllocs is the measured allocation count of one steady-state
// RunOne of the lpr campaign's first run: world fork, process, hook
// arming, the lpr program itself and the oracle pass. The pooled
// recorder, the copy-on-write fork and the shared launch environment
// keep fork and trace bookkeeping out of it (the same run took 34
// allocations before them).
const runOneAllocs = 18

// TestRunOneAllocs pins the allocation count of one steady-state
// injection run. Not parallel: AllocsPerRun reads process-wide
// allocation counters.
func TestRunOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled recorders at random")
	}
	plan, err := inject.Prepare(lpr.Campaign(lpr.Vulnerable))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() { sinkInjection = plan.RunOne(0) })
	if got > runOneAllocs {
		t.Errorf("RunOne: %v allocs per run, want at most %d", got, runOneAllocs)
	}
}

// TestRecorderConcurrentRuns runs every index of each catalog campaign's
// plan from two goroutines at once, so pooled recorders move between
// runs, campaigns and workers, and checks each result against a
// sequential pass. Under -race it also proves that runs forked from one
// snapshot share its accounts, mailboxes, programs and launch
// environment without a data race.
func TestRecorderConcurrentRuns(t *testing.T) {
	t.Parallel()
	for _, spec := range apps.Catalog() {
		plan, err := inject.Prepare(spec.Vulnerable())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		n := plan.NumRuns()
		want := make([]inject.Injection, n)
		for i := range want {
			want[i] = plan.RunOne(i)
		}
		var got [2][]inject.Injection
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]inject.Injection, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range n {
					got[w][i] = plan.RunOne(i)
				}
			}()
		}
		wg.Wait()
		for w := range got {
			for i := range want {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Errorf("%s run %d on worker %d:\n got %+v\nwant %+v", spec.Name, i, w, got[w][i], want[i])
				}
			}
		}
	}
}
