package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pandora/internal/serve"
)

// Serve job mix: warmSetSize stored trace sweeps with distinct seeds;
// one in jsonlEvery asks for the jsonl export (a body of about 190 KB),
// the rest for the text report (about 2.7 KB). The large bodies are the
// slowest fifth of the ops, so the median falls inside the report hits
// and the 90th percentile inside the jsonl hits, neither on the boundary.
const (
	jsonlEvery  = 5
	warmSetSize = 10
)

// warmOpsPerSecond sizes serve-warm's timed section: about the reference
// host's warm-hit rate, so a run of --seconds S makes S×warmOpsPerSecond
// requests and takes about S seconds there. The count is fixed rather
// than the time because the server keeps every settled job (see
// README.md): a fixed count makes peak_rss_mb and serve.jobs_tracked
// depend on the program alone, not on how fast the host ran.
const warmOpsPerSecond = 450

// buildDir holds what a run writes: the serve stores and journals live
// under it, inside the checkout the benchmark runs from.
const buildDir = ".bench_build"

// serveWL is the `serve-warm` workload: an in-process serve.New server on
// loopback HTTP, driven by one closed-loop client on one connection (it
// sends its next request only after the previous one settles). Every op
// resubmits a stored spec, so every op is a cache hit.
type serveWL struct {
	seed int64
	root string // per-process directory under buildDir; close removes it

	srv    *serve.Server
	stop   context.CancelFunc
	served chan error
	base   string
	client *http.Client

	warmSet  []serve.JobSpec   // the stored specs
	warmKeys []string          // their keys, as the server reported them
	warmBody map[string][]byte // key → the response's result bytes when it ran cold
	execd    float64           // serve.executed when the timed phase began
}

func newServe(seed int64) workload {
	return &serveWL{seed: seed, root: filepath.Join(buildDir, fmt.Sprintf("serve-%d", os.Getpid()))}
}

// warmSpec is the k-th stored spec.
func (w *serveWL) warmSpec(k int) serve.JobSpec {
	format := "report"
	if k%jsonlEvery == jsonlEvery-1 {
		format = "jsonl"
	}
	return serve.JobSpec{Kind: serve.KindTrace, Scenario: "sweep", Format: format, Seed: mix64(w.seed, k)}
}

func (w *serveWL) round() int { return warmSetSize }

func (w *serveWL) length(d time.Duration) int {
	rounds := int(d.Seconds()*warmOpsPerSecond) / warmSetSize
	return max(rounds, 1) * warmSetSize
}

// setUp opens a fresh store and journal, starts the server, waits for
// /readyz, and fills the store by running each stored spec cold.
func (w *serveWL) setUp() error {
	srv, err := serve.New(serve.Options{CacheDir: filepath.Join(w.root, "server"), Shards: workers(), Workers: workers()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.srv, w.stop, w.served = srv, cancel, make(chan error, 1)
	go func() { w.served <- srv.Serve(ctx, ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	if err := w.waitReady(); err != nil {
		return err
	}
	w.warmSet, w.warmKeys, w.warmBody = nil, nil, map[string][]byte{}
	for k := 0; k < warmSetSize; k++ {
		spec := w.warmSpec(k)
		view, _, err := w.submit(spec)
		if err != nil {
			return err
		}
		if view.State != "done" || view.Cached {
			return fmt.Errorf("filling the store: job %s settled %s (cached %v): %s", view.ID, view.State, view.Cached, view.Error)
		}
		w.warmSet = append(w.warmSet, spec)
		w.warmKeys = append(w.warmKeys, view.Key)
		w.warmBody[view.Key] = view.Result
	}
	if _, err := w.op(0); err != nil {
		return err
	}
	st, err := w.stats()
	w.execd = st["serve.executed"]
	return err
}

func (w *serveWL) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the server, if any, waits for it, and removes the store,
// the journal and the private store.
func (w *serveWL) close() {
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.stop()
		<-w.served
		w.srv = nil
	}
	os.RemoveAll(w.root)
}

// submit POSTs one spec and waits for the job to settle; the latency is
// submission to settled result.
func (w *serveWL) submit(spec serve.JobSpec) (serve.JobView, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	t0 := time.Now()
	var view serve.JobView
	code, err := w.call(http.MethodPost, "/v1/jobs", body, &view)
	if err != nil {
		return view, 0, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return view, 0, fmt.Errorf("submit: HTTP %d: %s", code, view.Error)
	}
	for view.State == "queued" || view.State == "running" {
		if _, err := w.call(http.MethodGet, "/v1/jobs/"+view.ID+"?wait=60s", nil, &view); err != nil {
			return view, 0, err
		}
	}
	return view, time.Since(t0), nil
}

// call makes one request, decodes the JSON reply into out and reads the
// body to its end so the connection is reused.
func (w *serveWL) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func (w *serveWL) stats() (map[string]float64, error) {
	var m map[string]float64
	_, err := w.call(http.MethodGet, "/v1/stats", nil, &m)
	return m, err
}

// bodyDigest hashes a result body in compact form: the server indents
// the result inside its JSON reply, the store and the runner do not.
func bodyDigest(raw []byte) ([32]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, bytes.TrimSuffix(raw, []byte("\n"))); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// op resubmits a stored spec: the reply must be a cache hit whose result
// is byte-identical to the reply when the job ran cold.
func (w *serveWL) op(i int) (time.Duration, error) {
	k := i % len(w.warmSet)
	view, lat, err := w.submit(w.warmSet[k])
	if err != nil {
		return lat, err
	}
	return lat, checkWarmView(view, w.warmKeys[k], w.warmBody[w.warmKeys[k]])
}

// checkWarmView checks a reply to a stored spec: a cache hit under the
// stored key whose result bytes equal the reply when it ran cold.
func checkWarmView(view serve.JobView, key string, coldResult []byte) error {
	if view.State != "done" {
		return fmt.Errorf("job %s settled %s: %s", view.ID, view.State, view.Error)
	}
	if !view.Cached {
		return wrongf("job %s: stored spec not served from the cache", view.ID)
	}
	if view.Key != key {
		return wrongf("job %s: key %s, want %s", view.ID, view.Key, key)
	}
	if !bytes.Equal(view.Result, coldResult) {
		return wrongf("job %s: cached body differs from the cold body", view.ID)
	}
	return nil
}

// checkRunnerBody checks a served result against the body serve.Runner
// gives for the same spec in process.
func checkRunnerBody(key string, served, runner []byte) error {
	ds, err := bodyDigest(served)
	if err != nil {
		return wrongf("job %s: served result is not JSON: %v", key, err)
	}
	if dr, err := bodyDigest(runner); err != nil || dr != ds {
		return wrongf("job %s: served body differs from the in-process serve.Runner result", key)
	}
	return nil
}

// runnerBodies runs every stored spec in process, checks that the server
// served the same body for it, and returns the bodies by key. The warm
// ops only compare hits with the server's own cold reply; this compares
// that reply with a result computed apart from the server.
func (w *serveWL) runnerBodies() (map[string][]byte, error) {
	bodies := map[string][]byte{}
	for k, key := range w.warmKeys {
		if want, _, err := serve.Key(w.warmSet[k]); err != nil || want != key {
			return nil, wrongf("job %s: the client computes key %s (%v)", key, want, err)
		}
		body, err := runInProcess(w.warmSet[k], key)
		if err != nil {
			return nil, err
		}
		if err := checkRunnerBody(key, w.warmBody[key], body); err != nil {
			return nil, err
		}
		bodies[key] = body
	}
	return bodies, nil
}

// finish checks the server's own counters and every stored body against
// the in-process serve.Runner result for its spec.
func (w *serveWL) finish() error {
	st, err := w.stats()
	if err != nil {
		return err
	}
	for _, name := range []string{"serve.retries", "serve.shed", "serve.wal_rejected", "serve.failed", "serve.cache.rejected"} {
		if st[name] != 0 {
			return fmt.Errorf("%s = %v, want 0", name, st[name])
		}
	}
	if st["serve.executed"] != w.execd {
		return fmt.Errorf("serve.executed moved from %v to %v during the warm phase", w.execd, st["serve.executed"])
	}
	_, err = w.runnerBodies()
	return err
}

// runInProcess runs a spec through serve.Runner as the server does and
// returns the result body the server would store.
func runInProcess(spec serve.JobSpec, key string) ([]byte, error) {
	canon, err := serve.Canonical(spec)
	if err != nil {
		return nil, err
	}
	runner, ok := serve.Runner(canon.Kind)
	if !ok {
		return nil, fmt.Errorf("no runner for kind %q", canon.Kind)
	}
	res, err := runner.Run(context.Background(), canon, serve.RunOpts{Workers: workers()})
	if err != nil {
		return nil, err
	}
	res.Key = key
	return serve.MarshalResult(res)
}

// traced runs two phases of half the ops each: the untraced ops (process
// costs and retained heap), then the same ops followed by the layer
// calls on the same spec, timed out of band: serve.Key, and Store.Get on
// a private store holding the same bodies.
func (w *serveWL) traced(d time.Duration, t *tally) (map[string]float64, error) {
	phase := d / 2
	n := w.length(phase)

	runtime.GC()
	live0 := liveHeap()
	r0 := readRuntime()
	latsU, wallU := loop(phase, w.round(), n, t, w.op)
	r1 := readRuntime()
	runtime.GC()
	live1 := liveHeap()

	private, err := serve.OpenStore(filepath.Join(w.root, "private"))
	if err != nil {
		return nil, err
	}
	bodies, err := w.runnerBodies()
	if err != nil {
		return nil, err
	}
	for key, body := range bodies {
		if err := private.Put(key, body); err != nil {
			return nil, err
		}
	}
	var key, get, rem time.Duration
	var bodyBytes int
	latsT, wallT := loop(phase, w.round(), n, t, func(i int) (time.Duration, error) {
		i += n
		lat, err := w.op(i)
		if err != nil {
			return lat, err
		}
		t0 := time.Now()
		k, _, err := serve.Key(w.warmSet[i%len(w.warmSet)])
		dk := time.Since(t0)
		if err != nil {
			return lat, err
		}
		t0 = time.Now()
		body, outcome, err := private.Get(k)
		dg := time.Since(t0)
		if err != nil || outcome != serve.Hit {
			return lat, fmt.Errorf("private store get %s: %v %v", k, outcome, err)
		}
		key += dk
		get += dg
		rem += lat - dk - dg
		bodyBytes += len(body)
		return lat, nil
	})
	if t.firstErr != nil {
		return nil, t.firstErr
	}
	st, err := w.stats()
	if err != nil {
		return nil, err
	}
	nU, nT := float64(len(latsU)), float64(len(latsT))
	return map[string]float64{
		"serve.key_us_per_op":       us(key) / nT,
		"serve.store_get_us_per_op": us(get) / nT,
		"serve.remainder_ms_per_op": ms(rem) / nT,
		"serve.body_kb_per_op":      float64(bodyBytes) / 1024 / nT,
		"serve.retained_kb_per_op":  (float64(live1) - float64(live0)) / 1024 / nU,
		"serve.jobs_tracked":        st["serve.jobs.tracked"],
		"process.cpu_ms_per_op":     ms(r1.cpu-r0.cpu) / nU,
		"process.gc_cpu_ms_per_op":  (r1.gcCPU - r0.gcCPU) * 1000 / nU,
		"trace.overhead_pct":        (wallT.Seconds()/nT/(wallU.Seconds()/nU) - 1) * 100,
	}, nil
}
