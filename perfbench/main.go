// Command perfbench is DarKnight's benchmark: open-loop private serving
// (serve-tiny, serve-deep-1ms) and private training (train-deep), measured
// end to end untraced and per layer from a separate traced run, with the
// outputs checked for correctness. It drives the system only through the
// public darknight facade. See README.md for the workloads, metrics and
// checks.
//
// These shapes reduce over at most 96 terms per output (TinyCNN's
// Dense(96→4) head), below the 256-term mod-p wrap bound of the 25-bit
// field, so class agreement here says nothing about that bound.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// Metric tables. The JSON result of an untraced run carries exactly the
// end-to-end metrics, that of a traced run exactly the per-layer ones; the
// names and units must match BENCHMARK.json.
var endToEnd = map[string]string{
	"p50_ms":      "ms",
	"p99_ms":      "ms",
	"rate_per_s":  "1/s",
	"ok_share":    "share",
	"class_agree": "share",
	"mem_peak_mb": "MB",
	"setup_s":     "s",
}

var perLayer = map[string]string{
	"serve.batch_wait_ms":         "ms",
	"serve.worker_wait_ms":        "ms",
	"serve.occupancy":             "share",
	"fleet.grant_wait_ms":         "ms",
	"fleet.flight_ms":             "ms",
	"fleet.peak_overlap":          "count",
	"sched.encode_ms":             "ms",
	"sched.decode_ms":             "ms",
	"sched.dispatch_ms":           "ms",
	"sched.tee_other_ms":          "ms",
	"sched.offloads_per_flight":   "count",
	"sched.overlap":               "ratio",
	"masking.noisepool_hit_share": "share",
	"masking.integrity_failures":  "count",
	"gpu.jobs_per_req":            "count",
	"gpu.bytes_per_req":           "B",
	"train.step_ms":               "ms",
	"train.encode_ms":             "ms",
	"train.dispatch_ms":           "ms",
	"train.decode_ms":             "ms",
	"train.tee_other_ms":          "ms",
	"train.cache_refills":         "count",
	"train.final_loss":            "nats",
	"enclave.sealed_bytes_per_vb": "B",
	"enclave.seal_ops_per_vb":     "count",
	"enclave.peak_bytes":          "B",
	"resil.deadline_expired":      "count",
	"resil.shed":                  "count",
	"resil.retries":               "count",
	"unattributed_share":          "share",
	"obs.trace_overhead_share":    "share",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings, its human-readable report and
// its result.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      *bufio.Writer
	res      result
	units    map[string]string
}

func (r *run) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

// set records a metric of the run's table and prints it with its sample
// count.
func (r *run) set(name string, v float64, samples string) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in this run's table")
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.printf("  %-28s %14.6g %-6s (%s)\n", name, v, unit, samples)
}

// check records a correctness check; one failure makes the run incorrect.
func (r *run) check(name string, ok bool, detail string) {
	verdict := "ok"
	if !ok {
		verdict = "FAIL"
		r.res.Correct = false
	}
	r.printf("check %-44s %-4s %s\n", name, verdict, detail)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve-tiny":     func(r *run) error { return runServe(r, serveTiny) },
	"serve-deep-1ms": func(r *run) error { return runServe(r, serveDeep) },
	"train-deep":     runTrain,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: serve-tiny, serve-deep-1ms or train-deep")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and arrival schedule")
	seconds := flag.Float64("seconds", 12, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		return 2
	}
	// At most two processors, so that hosts with more cores run the same
	// shape of contention between the TEE work, the simulated devices and
	// the load generator.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	r := &run{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		out: bufio.NewWriter(os.Stdout), units: endToEnd,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	if r.trace {
		r.units = perLayer
	}
	r.printMeta()
	err := fn(r)
	if err == nil {
		err = r.complete()
	}
	if err != nil {
		r.out.Flush()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	r.printf("%s\n", line)
	if err := r.out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// complete verifies that the run set every metric of its table, each a
// finite number.
func (r *run) complete() error {
	var missing []string
	for name := range r.units {
		m, ok := r.res.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	if r.res.Attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	return nil
}

// printMeta writes the run's provenance: commit, toolchain, processors,
// CPU model and seed, all read by the program itself.
func (r *run) printMeta() {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	r.printf("meta workload=%s seed=%d seconds=%g trace=%v commit=%s%s go=%s gomaxprocs=%d numcpu=%d cpu=%q os=%s/%s date=%s\n",
		r.workload, r.seed, r.seconds, r.trace, commit, modified, runtime.Version(),
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.GOOS, runtime.GOARCH,
		time.Now().UTC().Format(time.RFC3339))
}

// cpuModel reads the processor model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memMonitor samples the live heap (as of the last collection) plus
// goroutine stacks every memSampleEvery and keeps the peak. Unlike the
// runtime's Sys, which grows in arena-sized jumps, this moves with the
// program's own live data.
type memMonitor struct {
	done    chan struct{}
	exited  chan struct{}
	peak    float64
	samples int
}

const memSampleEvery = 20 * time.Millisecond

func startMemMonitor() *memMonitor {
	m := &memMonitor{done: make(chan struct{}), exited: make(chan struct{})}
	go func() {
		defer close(m.exited)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			m.sample()
			select {
			case <-m.done:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

var memMetrics = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/memory/classes/heap/stacks:bytes"}}

func (m *memMonitor) sample() {
	s := append([]metrics.Sample(nil), memMetrics...)
	metrics.Read(s)
	v := 0.0
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			v += float64(x.Value.Uint64())
		}
	}
	if v /= 1 << 20; v > m.peak {
		m.peak = v
	}
	m.samples++
}

// stop ends sampling, waits for the sampler to exit, and returns the peak
// in MB.
func (m *memMonitor) stop() float64 {
	close(m.done)
	<-m.exited
	m.sample()
	return m.peak
}

// secs scales a share of the run's measured seconds to a duration.
func (r *run) secs(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
