// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one seeded workload for a fixed time
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation installed; with -trace 1 the run installs span
// recorders at every layer boundary the benchmark calls into and
// prints the per-layer metrics instead. See README.md for the
// workloads, the metrics and which layer metric moves which end-to-end
// metric. Build and run it through run.sh:
//
//	bash perfbench/run.sh --workload batch-poi --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runs with.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // scratch directory, removed when the run ends
	nproc   int
	tr      *tracer // nil unless trace
	heap    *heapSampler
	// saturate replaces node-mixed's fixed arrival rate with a closed
	// loop at full speed, for the reference saturation figures.
	saturate bool
}

// report is what a workload hands back: operation counts, correctness
// findings and the metrics it measured, keyed by name.
type report struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records a correctness failure; any one fails the run.
func (r *report) mismatch(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "further mismatches suppressed")
	}
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"f1", "ratio"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics, in BENCHMARK.json order. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"core.preprocess_s", "s"},
	{"core.build_index_s", "s"},
	{"core.probe_s", "s"},
	{"verify.cpu_s", "s"},
	{"index.candidates", "count"},
	{"sig.entries", "count"},
	{"sig.avg_prefix", "count"},
	{"verify.count_pruned", "count"},
	{"verify.weighted_pruned", "count"},
	{"verify.lb_accepted", "count"},
	{"verify.ub_rejected", "count"},
	{"verify.useful_ratio", "ratio"},
	{"matching.calls", "count"},
	{"elem.resolve_s", "s"},
	{"core.prepare_query_ms", "ms"},
	{"core.run_query_ms", "ms"},
	{"core.add_ms", "ms"},
	{"core.add_candidates", "count"},
	{"core.segments", "count"},
	{"core.seal_total", "count"},
	{"core.merge_total", "count"},
	{"server.query_handler_ms", "ms"},
	{"server.add_handler_ms", "ms"},
	{"http.query_self_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.sync_ms", "ms"},
	{"recover.snapshot_load_s", "s"},
	{"recover.wal_replay_s", "s"},
	{"cluster.shard_rtt_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.shard_requests_per_query", "count"},
	{"cluster.shard_requests_per_join", "count"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.add_ms", "ms"},
	{"cluster.add_shard_requests", "count"},
	{"join_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"add_p50_ms", "ms"},
	{"add_p99_ms", "ms"},
	{"join_p50_ms", "ms"},
	{"join_p99_ms", "ms"},
	{"gen.late_max_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*report, error){
	"batch-poi":      runBatchPOI,
	"batch-pub-plus": runBatchPubPlus,
	"node-mixed":     runNodeMixed,
	"fleet-read":     runFleetRead,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: batch-poi|batch-pub-plus|node-mixed|fleet-read")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
		out      = flag.String("out", ".bench_build", "directory for scratch data and traces")
		sweep    = flag.String("sweep", "", "instead of a workload, print a batch-poi scale sweep over these comma-separated sizes")
		saturate = flag.Bool("saturate", false, "node-mixed only: drive the node closed-loop from nproc connections and print its saturation throughput")
	)
	flag.Parse()
	if *sweep != "" {
		if err := runSweep(*sweep, *seed); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*saturate && *workload != "node-mixed") {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// Results and the source hash are paths relative to the repository
	// root.
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	work, err := os.MkdirTemp(mustMkdir(filepath.Join(*out, "work")), *workload+"-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, work: work, nproc: runtime.NumCPU(), saturate: *saturate}
	if e.trace {
		e.tr = newTracer()
	}
	e.heap = startHeapSampler()
	rep, err := run(e)
	e.heap.stop()
	_ = os.RemoveAll(work) // scratch only; a leftover directory is harmless
	if err != nil {
		fatal(err)
	}

	if e.saturate {
		line, err := json.Marshal(rep.layer)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	res := result{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", p)
	}
	if e.trace {
		rep.layer["trace.spans"] = float64(e.tr.len())
		if err := e.tr.write(filepath.Join(mustMkdir(filepath.Join(*out, "traces")), fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))); err != nil {
			fatal(err)
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: rep.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok {
				fatal(fmt.Errorf("workload %s did not measure %s", *workload, m.name))
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}
	if res.Attempted < 1 {
		fatal(fmt.Errorf("workload %s attempted no operation", *workload))
	}
	recordRun(*workload, *seed, *seconds, *trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

// recordRun appends the run, with the machine's shape and the code's
// identity, to results/runs.jsonl: the per-commit trajectory.
func recordRun(workload string, seed uint64, seconds float64, trace int, res result) {
	entry := map[string]any{
		"time":        time.Now().UTC().Format(time.RFC3339),
		"workload":    workload,
		"seed":        seed,
		"seconds":     seconds,
		"trace":       trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      gitCommit(),
		"source_hash": sourceHash(),
		"result":      res,
	}
	line, err := json.Marshal(entry)
	if err != nil {
		fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(mustMkdir(filepath.Join("perfbench", "results")), "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fatal(err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// work tree (an exported source tree is identified by sourceHash).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is a SHA-256 over every Go source and module file of the
// repository outside the build directory, so runs of identical code
// carry the same identity with or without git.
func sourceHash() string {
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
