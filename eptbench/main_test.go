package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// metricName is the form every metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is BENCHMARK.json as the self-tests read it.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricNames checks every metric name's form and that none repeats.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json declares
// exactly the workloads and metrics this package reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code %+v", i, got, d)
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nonzero lists, per workload, the per-layer metrics its traced run
// must report as non-zero: the layers it exercises.
var nonzero = map[string][]string{
	"matrix-cold": {"matrix.catalog_ms", "apps.build_us", "apps.builds", "inject.plan_us", "inject.plans",
		"inject.world_us", "inject.exec_us", "inject.compare_us", "inject.runs", "inject.allocs_per_run",
		"sched.inflight_p90_ms", "sched.self_ratio", "store.codec_us", "findings.build_ms",
		"findings.encode_ms", "report.render_ms", "trace.pass_ms", "trace.untraced_p50_ms", "replay.wall_ms",
		"self.sched_ms", "self.findings_ms", "self.report_ms", "self.unattributed_ms"},
	"matrix-warm": {"matrix.catalog_ms", "apps.build_us", "apps.builds", "inject.fingerprint_us",
		"sched.self_ratio", "store.get_p50_us", "store.get_p90_us", "store.gets", "store.hit_ratio",
		"store.codec_us", "findings.build_ms", "findings.encode_ms", "report.render_ms",
		"self.store_ms", "self.findings_ms", "self.unattributed_ms"},
	"fleet-base": {"apps.build_us", "apps.builds", "inject.fingerprint_us", "inject.plan_us", "inject.plans",
		"inject.exec_us", "inject.runs", "inject.allocs_per_run", "sched.self_ratio", "store.get_p50_us",
		"store.gets", "store.put_us", "store.puts", "coord.claim_p50_us", "coord.claims",
		"coord.journal_bytes", "findings.build_ms", "report.render_ms", "self.sched_ms", "self.coord_ms"},
	"cli-lpr": {"matrix.catalog_ms", "inject.plan_us", "inject.runs", "cli.wall_ms", "cli.inproc_ms",
		"cli.cpu_ms", "self.cli_ms", "trace.pass_ms"},
}

// TestSmokeEveryWorkload runs each workload once untraced and once
// traced in smoke mode and checks the result line: correct, every
// declared metric present with its unit, the exercised layers
// non-zero, and the self-time table summing to the traced pass time.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	eptest := filepath.Join(t.TempDir(), "eptest")
	build := exec.Command("go", "build", "-o", eptest, "./cmd/eptest")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build eptest: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w, "-seed", "7", "-trace", trace, "-smoke",
					"-root", root, "-eptest", eptest, "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				var res result
				if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "0" {
					return
				}
				for _, n := range nonzero[w] {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("per-layer metric %s = %v, want > 0 on %s", n, res.Metrics[n].Value, w)
					}
				}
				sum := 0.0
				for _, l := range selfLayers {
					sum += res.Metrics["self."+l+"_ms"].Value
				}
				if pass := res.Metrics["trace.pass_ms"].Value; math.Abs(sum-pass) > 1e-3*pass {
					t.Errorf("self times sum to %v ms, traced pass is %v ms", sum, pass)
				}
			})
		}
	}
}

// TestSelfTimesSumToPass checks the weighting on a hand-built pass: a
// dispatch span over two lanes whose children overlap in time, and an
// async span that takes no part.
func TestSelfTimesSumToPass(t *testing.T) {
	const msec = time.Millisecond
	spans := []span{
		{ID: 1, Pass: 1, Name: "pass", Width: 1, End: 100 * msec},
		{ID: 2, Parent: 1, Pass: 1, Name: "sched.RunSuite", Width: 2, Start: 10 * msec, End: 90 * msec},
		{ID: 3, Parent: 2, Pass: 1, Name: "apps.build", Width: 1, Start: 10 * msec, End: 70 * msec},
		{ID: 4, Parent: 2, Pass: 1, Name: "store.get", Width: 1, Start: 20 * msec, End: 80 * msec},
		{ID: 5, Parent: 2, Pass: 1, Name: "coord.claim", Width: 1, Start: 10 * msec, End: 90 * msec, Async: true},
		{ID: 6, Parent: 1, Pass: 1, Name: "findings.build", Width: 1, Start: 90 * msec, End: 95 * msec},
	}
	got := selfTimes(spans)[1]
	want := map[string]time.Duration{"unattributed": 15 * msec, "sched": 20 * msec, "apps": 30 * msec, "store": 30 * msec, "findings": 5 * msec}
	var total time.Duration
	for l, d := range got {
		total += d
		if d != want[l] {
			t.Errorf("%s self = %v, want %v", l, d, want[l])
		}
	}
	if total != 100*msec {
		t.Errorf("self times sum to %v, want 100ms", total)
	}
}

// TestBareCheckoutFails runs run.sh in a directory that holds only
// BENCHMARK.json and this package. The build must fail, no result line
// may be printed, and the go command must not have started its
// telemetry sidecar, which would outlive the run: the sidecar's
// counter directory exists only when telemetry is on.
func TestBareCheckoutFails(t *testing.T) {
	dir := t.TempDir()
	bench, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), bench, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(dir, "eptbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "eptbench/run.sh", "--workload", "matrix-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded without the program's sources")
	}
	if bytes.Contains(stdout.Bytes(), []byte(`"correct"`)) {
		t.Errorf("run.sh printed a result:\n%s", stdout.String())
	}
	if _, err := os.Stat(filepath.Join(dir, ".bench_build", "config", "go", "telemetry", "local")); err == nil {
		t.Error("go telemetry was on: its sidecar process may outlive the run")
	}
}
