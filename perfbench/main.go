// Command perfbench is pandora's benchmark: one workload per process,
// driven through the public entry points pandora's users hit, with every
// operation's output checked.
//
//	perfbench --workload contract|check|serve-warm \
//	          --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// times the calls into each layer from the benchmark's own code and
// prints the per-layer metrics. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// wrongOutput marks an op whose output failed its check, as opposed to
// an op the program could not complete. Both count as failed; a wrong
// output also makes the run incorrect.
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return "wrong output: " + e.msg }

func wrongf(format string, args ...any) error {
	return &wrongOutput{msg: fmt.Sprintf(format, args...)}
}

// workload is one benchmark workload. A workload is used from one
// goroutine.
type workload interface {
	// setUp builds the workload's state from nothing and runs one
	// untimed warm-up op. It is called setupReps times, with a close
	// before each call but the first.
	setUp() error
	// round is how many ops make one round; timed loops stop only at a
	// round boundary.
	round() int
	// length is how many ops a timed section of d runs: a whole number
	// of rounds, or 0 to run for d and stop at the next round boundary.
	length(d time.Duration) int
	// op runs the i-th timed op, checks its output, and returns the op's
	// latency, which leaves out the client-side checking.
	op(i int) (time.Duration, error)
	// finish runs the end-of-run checks that are too costly to time.
	finish() error
	// traced runs the traced phases for about d and returns the
	// per-layer metrics.
	traced(d time.Duration, t *tally) (map[string]float64, error)
	// close releases what setUp acquired.
	close()
}

// setupReps is how many times a run sets its workload up; setup_s is
// their median, so one slow set-up (a cold page cache, a GC) does not
// move it.
const setupReps = 31

// tally counts a run's ops.
type tally struct {
	attempted, failed int
	wrong             bool
	firstErr          error
}

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var w *wrongOutput
	if errors.As(err, &w) {
		t.wrong = true
	}
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// loop runs op back to back, n times when n > 0 and otherwise for at
// least d, stopping only at a multiple of round ops, and returns each
// op's latency in ms and the wall time.
func loop(d time.Duration, round, n int, t *tally, op func(i int) (time.Duration, error)) ([]float64, time.Duration) {
	var lats []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i%round == 0 && (n > 0 && i == n || n <= 0 && time.Since(start) >= d) {
			return lats, time.Since(start)
		}
		lat, err := op(i)
		lats = append(lats, ms(lat))
		t.record(err)
	}
}

// timeOp adapts an op that is timed whole.
func timeOp(op func(i int) error) func(i int) (time.Duration, error) {
	return func(i int) (time.Duration, error) {
		t0 := time.Now()
		err := op(i)
		return time.Since(t0), err
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics and their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics and their units, in
// BENCHMARK.json order. Every traced run prints all of them; a layer the
// workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"asm.assemble_us_per_sim", "us"},
	{"asm.alloc_kb_per_sim", "KB"},
	{"pipeline.build_us_per_sim", "us"},
	{"pipeline.run_ms_per_sim", "ms"},
	{"pipeline.checks_ms_per_sim", "ms"},
	{"pipeline.cycles_per_sim", "cycles"},
	{"pipeline.sim_mcycles_per_s", "Mcycles/s"},
	{"pipeline.alloc_kb_per_sim", "KB"},
	{"taint.events_per_sim", "count"},
	{"core.summarize_us_per_sim", "us"},
	{"core.summarize_alloc_kb_per_sim", "KB"},
	{"kernels.marshal_us_per_op", "us"},
	{"parallel.efficiency", "ratio"},
	{"emu.run_us_per_sim", "us"},
	{"diffcheck.generate_us_per_program", "us"},
	{"mem.diff_us_per_sim", "us"},
	{"serve.key_us_per_op", "us"},
	{"serve.store_get_us_per_op", "us"},
	{"serve.remainder_ms_per_op", "ms"},
	{"serve.body_kb_per_op", "KB"},
	{"serve.retained_kb_per_op", "KB"},
	{"serve.jobs_tracked", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.gc_cpu_ms_per_op", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(seed int64) workload{
	"contract":   newContract,
	"check":      newCheck,
	"serve-warm": newServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: contract, check or serve-warm")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the timed section runs")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, "|"))
		return 2
	}
	w := mk(*seed)
	defer w.close()
	d := time.Duration(*seconds) * time.Second

	var setups []float64
	for k := 0; k < setupReps; k++ {
		if k > 0 {
			w.close() // the previous set-up's teardown is not set-up time
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up: %v\n", *name, err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var t tally
	res := result{Metrics: map[string]metric{}}
	if *trace == 1 {
		layers, err := w.traced(d, &t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced run: %v\n", *name, err)
			return 1
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layers[m.name], Unit: m.unit}
		}
	} else {
		before := readRuntime()
		lats, wall := loop(d, w.round(), w.length(d), &t, w.op)
		after := readRuntime()
		rss := peakRSSMB()
		p50 := median(lats)
		p90, err := percentile(lats, 90)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v (too few ops; raise --seconds)\n", *name, err)
			return 1
		}
		n := float64(len(lats))
		vals := map[string]float64{
			"setup_s":         median(setups),
			"ops_per_s":       n / wall.Seconds(),
			"op_p50_ms":       p50,
			"op_p90_ms":       p90,
			"alloc_kb_per_op": float64(after.allocBytes-before.allocBytes) / 1024 / n,
			"peak_rss_mb":     rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops in %.2fs, setups %v\n", *name, len(lats), wall.Seconds(), setups)
	}
	if err := w.finish(); err != nil {
		t.wrong = true
		fmt.Fprintf(os.Stderr, "perfbench: %s: end-of-run check: %v\n", *name, err)
	}
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed, first: %v\n", *name, t.failed, t.attempted, t.firstErr)
	}
	res.Correct = !t.wrong
	res.Attempted = t.attempted
	res.Failed = t.failed
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// workers is the analysis fan-out and serve shard count: one per CPU, so
// the figures measure the program rather than the scheduler.
func workers() int { return runtime.NumCPU() }

// mix64 is splitmix64: it turns (seed, i) into well-spread input seeds,
// so distinct specs never share a seed and runs on different seeds share
// none either.
func mix64(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1 // positive and never 0, which some specs read as "default"
}
