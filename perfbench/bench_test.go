package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"pandora/internal/diffcheck"
	"pandora/internal/kernels"
	"pandora/internal/serve"
)

func isWrong(err error) bool {
	var w *wrongOutput
	return errors.As(err, &w)
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	// 100 samples: nearest rank 90 leaves samples 91..100 beyond it.
	p, err := percentile(seq(100), 90)
	if err != nil || p != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	// 99 samples: rank 90 leaves only nine beyond it.
	if _, err := percentile(seq(99), 90); err == nil {
		t.Fatal("p90 over 99 samples accepted with nine samples beyond it")
	}
	if p, err := percentile(seq(20), 50); err != nil || p != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
}

func TestMix64(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 2} {
		for i := -5; i < 1000; i++ {
			v := mix64(seed, i)
			if v <= 0 || seen[v] {
				t.Fatalf("mix64(%d, %d) = %d: not positive or repeated", seed, i, v)
			}
			seen[v] = true
		}
	}
}

// TestContractCheckerRejectsFlippedVerdict runs a one-mask contract job
// for a constant-time kernel and for the table-lookup kernel, and flips
// each baseline verdict: the checker must accept the real reports and
// reject both flips.
func TestContractCheckerRejectsFlippedVerdict(t *testing.T) {
	var variant diffcheck.CacheVariant
	for _, v := range diffcheck.CacheVariants() {
		if v.Name == "tiny-lru" {
			variant = v
		}
	}
	masks := []diffcheck.ToggleMask{0}
	for _, name := range []string{"chacha20-qr", "aes-ttable"} {
		k, _ := kernels.KernelByName(name)
		o := contractOp{kernel: k, variant: variant}
		rep, err := kernels.Enumerate(context.Background(), kernels.Options{
			Kernels: []string{name}, Variants: []string{variant.Name}, Masks: masks, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkContractReport(rep, o, len(masks), rep.Format()); err != nil {
			t.Fatalf("%s: real report rejected: %v", name, err)
		}
		kr := &rep.Kernels[0]
		if k.ConstantTime {
			kr.BaselineVerdict, kr.Variants[0].LeakMask = "leaks", "01"
		} else {
			kr.BaselineVerdict, kr.Variants[0].LeakMask, kr.Classes = "clean", "00", nil
		}
		if err := checkContractReport(rep, o, len(masks), rep.Format()); !isWrong(err) {
			t.Errorf("%s: flipped baseline verdict not rejected as a wrong output (err %v)", name, err)
		}
	}
}

func TestCheckCheckerRejectsDivergenceAndMiscount(t *testing.T) {
	w := newCheck(1).(*checkWL)
	good := diffcheck.Report{Programs: w.fixtures + checkPrograms, Runs: w.runsPerOp}
	if err := w.checkReport(good); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	diverged := good
	diverged.Failures = []diffcheck.Failure{{Name: "gen-0000", Div: diffcheck.Divergence{Kind: "register", Detail: "x1"}}}
	if err := w.checkReport(diverged); !isWrong(err) {
		t.Errorf("divergence not rejected: %v", err)
	}
	short := good
	short.Runs--
	if err := w.checkReport(short); !isWrong(err) {
		t.Errorf("run count off by one not rejected: %v", err)
	}
}

// TestCheckRoundIsFixedCorpora checks that every seed runs the same
// corpus seeds, each once a round, and only their order differs.
func TestCheckRoundIsFixedCorpora(t *testing.T) {
	for _, seed := range []int64{1, 2, 201} {
		w := newCheck(seed).(*checkWL)
		if w.round() != checkCorpora {
			t.Fatalf("seed %d: round of %d ops, want %d", seed, w.round(), checkCorpora)
		}
		seen := map[int64]bool{}
		for i := 0; i < w.round(); i++ {
			cs := w.corpusSeed(i)
			if cs < 1 || cs > checkCorpora || seen[cs] {
				t.Fatalf("seed %d: op %d runs corpus seed %d, want each of 1..%d once", seed, i, cs, checkCorpora)
			}
			seen[cs] = true
			if w.corpusSeed(i+w.round()) != cs {
				t.Fatalf("seed %d: op %d of the next round runs another corpus", seed, i)
			}
		}
	}
}

// TestServeCheckersRejectWrongReplies computes a real trace-sweep body
// in process and checks that a corrupted body, a body that differs from
// the runner's, and a warm reply marked uncached are each rejected.
func TestServeCheckersRejectWrongReplies(t *testing.T) {
	spec := (&serveWL{seed: 1}).warmSpec(0)
	key, _, err := serve.Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := runInProcess(spec, key)
	if err != nil {
		t.Fatal(err)
	}
	// The server indents the result inside its reply; that must pass.
	var indented json.RawMessage
	if err := json.Unmarshal(body, &indented); err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(struct {
		Result json.RawMessage `json:"result"`
	}{indented}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(pretty, &reply); err != nil {
		t.Fatal(err)
	}
	if err := checkRunnerBody(key, reply.Result, body); err != nil {
		t.Fatalf("indented copy of the runner's body rejected: %v", err)
	}
	corrupt := append([]byte(nil), body...)
	corrupt[len(corrupt)/2] ^= 1
	if err := checkRunnerBody(key, corrupt, body); !isWrong(err) {
		t.Errorf("corrupted body not rejected: %v", err)
	}
	other, err := runInProcess((&serveWL{seed: 2}).warmSpec(0), key)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRunnerBody(key, reply.Result, other); !isWrong(err) {
		t.Errorf("body of another spec not rejected: %v", err)
	}

	warm := serve.JobView{ID: "j1", Key: key, State: "done", Cached: true, Result: reply.Result}
	if err := checkWarmView(warm, key, reply.Result); err != nil {
		t.Fatalf("warm reply rejected: %v", err)
	}
	uncached := warm
	uncached.Cached = false
	if err := checkWarmView(uncached, key, reply.Result); !isWrong(err) {
		t.Errorf("warm reply marked uncached not rejected: %v", err)
	}
	wrongKey := warm
	wrongKey.Key = key[:len(key)-1] + "0"
	if wrongKey.Key == key {
		wrongKey.Key = key[:len(key)-1] + "1"
	}
	if err := checkWarmView(wrongKey, key, reply.Result); !isWrong(err) {
		t.Errorf("warm reply under another key not rejected: %v", err)
	}
	warm.Result = corrupt
	if err := checkWarmView(warm, key, reply.Result); !isWrong(err) {
		t.Errorf("warm reply with a corrupted body not rejected: %v", err)
	}
}

func TestLoopStopsAtCountOrTime(t *testing.T) {
	var ta tally
	op := func(int) (time.Duration, error) { return time.Microsecond, nil }
	if lats, _ := loop(time.Hour, 10, 30, &ta, op); len(lats) != 30 {
		t.Errorf("counted loop ran %d ops, want 30", len(lats))
	}
	if lats, _ := loop(time.Millisecond, 7, 0, &ta, op); len(lats) == 0 || len(lats)%7 != 0 {
		t.Errorf("timed loop ran %d ops, want a positive multiple of the round 7", len(lats))
	}
	w := &serveWL{}
	if n := w.length(20 * time.Second); n != 20*warmOpsPerSecond || n%w.round() != 0 {
		t.Errorf("serve-warm runs %d ops at 20 s, want %d in whole rounds", n, 20*warmOpsPerSecond)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// and workloads this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
