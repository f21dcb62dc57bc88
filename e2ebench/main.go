// Command e2ebench is contexp's end-to-end benchmark. It boots the
// control plane in its own process, wired as cmd/contexpd wires it
// (file journal, scheduler, fleet hub, live trace collector and health
// monitor, bearer-token tenancy), starts edge agents set up as
// cmd/contexp-agent sets them up, and backends that answer at once with
// their version name. Everything listens on loopback. It then drives
// one workload for a fixed time, checks every output, and prints the
// result as one JSON object on the last line of standard output:
//
//	e2ebench --workload edge-serve|rollback-storm|eval-scale \
//	         --seed 1 --seconds 25 --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run wraps the program's public interfaces (journal, querier,
// topology assessor, HTTP round trippers) to time each layer, keeps the
// spans in memory, writes them under .bench_build/trace/ at the end and
// reports the per-layer metrics. A human-readable report, with
// attempted and failed operations per kind, goes to standard error.
//
// See README.md in this directory for the workloads, the metrics, and
// which per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	opt := &options{}
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "edge-serve, rollback-storm or eval-scale")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 25, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, ok := workloads[opt.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	return opt, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"edge-serve":     runEdgeServe,
	"rollback-storm": runRollbackStorm,
	"eval-scale":     runEvalScale,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	b, err := newBench(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	err = workloads[opt.workload](b)
	b.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := b.report(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// bench is one benchmark run: options, the work directory, the tracer
// (nil when untraced), and the operation and metric tallies.
type bench struct {
	opt     *options
	workDir string
	tr      *tracer

	ops     map[string]*opTally
	opOrder []string
	// knownFault names the operation kind that fails on every run
	// because of a fault in the program (README.md, "Known fault"):
	// its failures are counted but leave the result correct.
	knownFault string
	metrics    map[string]metricValue
	notes      []string
}

type opTally struct{ attempted, failed int64 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newBench(opt *options) (*bench, error) {
	dir, err := os.MkdirTemp(".bench_build", fmt.Sprintf("run-%s-", opt.workload))
	if err != nil {
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		if dir, err = os.MkdirTemp(".bench_build", fmt.Sprintf("run-%s-", opt.workload)); err != nil {
			return nil, err
		}
	}
	b := &bench{opt: opt, workDir: dir, ops: map[string]*opTally{}, metrics: map[string]metricValue{}}
	if opt.trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) cleanup() { _ = os.RemoveAll(b.workDir) }

func (b *bench) window() time.Duration { return time.Duration(b.opt.seconds) * time.Second }

// op counts one attempted operation of a kind, failed when ok is false.
func (b *bench) op(kind string, ok bool) { b.opN(kind, 1, boolInt(!ok)) }

// opN counts n attempted operations of a kind, failed of them failed.
func (b *bench) opN(kind string, n, failed int64) {
	t := b.ops[kind]
	if t == nil {
		t = &opTally{}
		b.ops[kind] = t
		b.opOrder = append(b.opOrder, kind)
	}
	t.attempted += n
	t.failed += failed
}

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// failf records why an operation failed a check. Only the first few
// reasons per run are kept.
func (b *bench) failf(format string, args ...any) {
	if len(b.notes) < 40 {
		b.notes = append(b.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// endToEnd records an end-to-end metric; it is reported only untraced.
// Traced runs print it to standard error so the tracing overhead shows.
func (b *bench) endToEnd(name, unit string, v float64) {
	if b.opt.trace {
		b.notef("traced end-to-end %s = %.6g %s", name, v, unit)
		return
	}
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

// layer records a per-layer metric; it is reported only traced.
func (b *bench) layer(name, unit string, v float64) {
	if !b.opt.trace {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

// absent records a per-layer metric the workload's traffic cannot
// produce: it reads 0 and the reason goes to the report.
func (b *bench) absent(name, unit, why string) {
	if !b.opt.trace {
		return
	}
	if _, ok := b.metrics[name]; ok {
		return
	}
	b.metrics[name] = metricValue{Value: 0, Unit: unit}
	b.notef("absent %s: %s", name, why)
}

// report prints the human-readable report to standard error and the
// result object as the last line of standard output.
func (b *bench) report() error {
	want := endToEndMetrics
	if b.opt.trace {
		want = perLayerMetrics
	}
	for _, m := range want {
		if _, ok := b.metrics[m.name]; !ok {
			if b.opt.trace {
				b.absent(m.name, m.unit, "not produced by this workload")
				continue
			}
			return fmt.Errorf("workload %s produced no %s", b.opt.workload, m.name)
		}
	}
	var attempted, failed, unexpected int64
	fmt.Fprintf(os.Stderr, "workload %s seed %d seconds %d trace %v\n",
		b.opt.workload, b.opt.seed, b.opt.seconds, b.opt.trace)
	for _, k := range b.opOrder {
		t := b.ops[k]
		attempted += t.attempted
		failed += t.failed
		if k != b.knownFault {
			unexpected += t.failed
		}
		fmt.Fprintf(os.Stderr, "  ops %-22s attempted %8d failed %d\n", k, t.attempted, t.failed)
	}
	for _, m := range want {
		v := b.metrics[m.name]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", m.name, v.Value, v.Unit)
	}
	for _, n := range b.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	if attempted == 0 {
		return errors.New("no operations attempted")
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{unexpected == 0, attempted, failed, map[string]metricValue{}}
	for _, m := range want {
		out.Metrics[m.name] = b.metrics[m.name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricDef struct{ name, unit string }

// endToEndMetrics is what every untraced run reports, on every
// workload; BENCHMARK.json lists the same names.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
	{"proxy_p50_us", "us"},
	{"resolve_p50_us", "us"},
	{"edge_cpu_us", "us"},
	{"ttr_p50_ms", "ms"},
	{"eval_cpu_us", "us"},
	{"ingest_cpu_us", "us"},
}

// perLayerMetrics is what every traced run reports.
var perLayerMetrics = []metricDef{
	{"router.forward_p50_us", "us"},
	{"router.return_p50_us", "us"},
	{"router.direct_p50_us", "us"},
	{"router.mirror_drops", "count"},
	{"router.swap_p50_ms", "ms"},
	{"agent.resolves", "count"},
	{"agent.proxy_p99_us", "us"},
	{"agent.resolve_p99_us", "us"},
	{"agent.req_per_s", "1/s"},
	{"wire.flushes", "count"},
	{"wire.post_p50_us", "us"},
	{"wire.post_p99_us", "us"},
	{"wire.encode_p50_us", "us"},
	{"server.spans_p50_us", "us"},
	{"server.submit_p50_ms", "ms"},
	{"server.ingest_p50_us", "us"},
	{"metrics.prefill_s", "s"},
	{"metrics.query_p50_us", "us"},
	{"metrics.query_p99_us", "us"},
	{"metrics.queries_per_eval.ladder", "ratio"},
	{"metrics.queries_per_eval.distinct", "ratio"},
	{"bifrost.eval_busy_us", "us"},
	{"bifrost.check_lag_p50_ms", "ms"},
	{"bifrost.check_lag_p99_ms", "ms"},
	{"bifrost.cache_hit_ratio", "ratio"},
	{"bifrost.inline_evals", "count"},
	{"bifrost.detect_p50_ms", "ms"},
	{"bifrost.decide_p50_ms", "ms"},
	{"journal.append_p50_us", "us"},
	{"journal.append_p99_us", "us"},
	{"journal.bytes_per_append", "B"},
	{"journal.syncs", "count"},
	{"fleet.fanout_p50_ms", "ms"},
	{"fleet.fanout_max_ms", "ms"},
	{"fleet.frames", "count"},
	{"fleet.drops", "count"},
	{"health.verdict_p50_us", "us"},
	{"health.verdict_p99_us", "us"},
	{"tracing.spans", "count"},
	{"tracing.drops", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
}

// --- process measurements ---

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMiB forces a collection and reads the live heap.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcSnapshot is the collector's cycle count and total pause time.
type gcSnapshot struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// layerGC reports the collector's work between two snapshots.
func (b *bench) layerGC(from gcSnapshot) {
	to := readGC()
	b.layer("runtime.gc_cycles", "count", float64(to.cycles-from.cycles))
	b.layer("runtime.gc_pause_ms", "ms", ms(to.pause-from.pause))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
