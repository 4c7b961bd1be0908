package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"

	"pandora/internal/asm"
	"pandora/internal/cache"
	"pandora/internal/core"
	"pandora/internal/diffcheck"
	"pandora/internal/dmp"
	"pandora/internal/kernels"
	"pandora/internal/mem"
	"pandora/internal/pipeline"
	"pandora/internal/taint"
)

// contractMasks is the toggle-mask set every contract op enumerates: the
// unoptimized machine, each of the nine toggles alone, each left out, and
// all nine together. `pandora contract -masks N` takes the first N masks,
// which for N <= 64 never turns on fusion or either speculation toggle,
// so the set is explicit.
func contractMasks() []diffcheck.ToggleMask {
	all := diffcheck.ToggleMask(diffcheck.AllMasks - 1)
	masks := []diffcheck.ToggleMask{0}
	for b := 0; b < diffcheck.NumToggles; b++ {
		masks = append(masks, 1<<b)
	}
	for b := 0; b < diffcheck.NumToggles; b++ {
		masks = append(masks, all&^(1<<b))
	}
	return append(masks, all)
}

// contractVariants are the cache variants contract ops run on: the five
// small geometries. Op cost then depends on the kernel alone: 15 cheap
// ops (chacha20-qr, poly1305-acc, montladder-cswap), 5 table-lookup AES
// ops at about 3x and 5 bitsliced AES ops at about 12x. The median falls
// among the poly1305-acc ops and the 90th percentile among the bitsliced
// ones, each well inside a group of similar ops. With default-lru, whose
// self-checked cells cost about 3x a small geometry's, the median fell
// in the gap between two groups and moved 17% between runs.
var contractVariants = []string{"tiny-lru", "tiny-plru-pow2", "tiny-plru-ways6", "tiny-random", "stride-pbuf"}

type contractOp struct {
	kernel  kernels.Kernel
	variant diffcheck.CacheVariant
}

func (o contractOp) String() string { return o.kernel.Name + "/" + o.variant.Name }

// contractWL is the `contract` workload: one op is one contract job, one
// kernel × one cache variant × contractMasks, through kernels.Enumerate
// and Report.Marshal/Format as `pandora contract` and the serve contract
// runner call them.
type contractWL struct {
	ops     []contractOp // one round, in a seed-shuffled order
	warmup  contractOp   // the set-up op: the library's first, whatever the seed
	masks   []diffcheck.ToggleMask
	digests map[string][32]byte // op → digest of its marshalled report
}

func newContract(seed int64) workload {
	byName := map[string]diffcheck.CacheVariant{}
	for _, v := range diffcheck.CacheVariants() {
		byName[v.Name] = v
	}
	w := &contractWL{masks: contractMasks()}
	for _, k := range kernels.Kernels() {
		for _, name := range contractVariants {
			w.ops = append(w.ops, contractOp{kernel: k, variant: byName[name]})
		}
	}
	w.warmup = w.ops[0]
	// The library's inputs are fixed; the seed only orders the round.
	rand.New(rand.NewSource(seed)).Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w
}

func (w *contractWL) round() int               { return len(w.ops) }
func (w *contractWL) length(time.Duration) int { return 0 }

func (w *contractWL) setUp() error {
	w.digests = map[string][32]byte{}
	_, err := w.runOp(w.warmup, workers())
	return err
}

func (w *contractWL) close() {}

func (w *contractWL) op(i int) (time.Duration, error) {
	return timeOp(func(i int) error { return w.runOpAt(i, workers()) })(i)
}

// runOp runs one contract job at the given fan-out, checks it, and
// returns its marshalled report.
func (w *contractWL) runOp(o contractOp, nworkers int) ([]byte, error) {
	rep, err := kernels.Enumerate(context.Background(), kernels.Options{
		Kernels:  []string{o.kernel.Name},
		Variants: []string{o.variant.Name},
		Masks:    w.masks,
		Workers:  nworkers,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o, err)
	}
	raw, err := rep.Marshal()
	if err != nil {
		return nil, fmt.Errorf("%s: marshal: %w", o, err)
	}
	text := rep.Format()
	if err := checkContractReport(rep, o, len(w.masks), text); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if have, ok := w.digests[o.String()]; ok && have != sum {
		return nil, wrongf("%s: report differs from the same job's earlier report", o)
	}
	w.digests[o.String()] = sum
	return raw, nil
}

// checkContractReport checks what the method guarantees of one job's
// report. Each cell's kernel output was already checked against the
// kernel's host reference model (uint32 ChaCha, big.Int Poly1305, ...)
// inside the run, which fails the job otherwise. Here: every mask is
// accounted for; mask 0 (the first enumerated) is clean for a
// constant-time kernel on every variant; aes-ttable leaks through
// cache-addr at mask 0.
func checkContractReport(rep *kernels.Report, o contractOp, nmasks int, text string) error {
	if len(rep.Kernels) != 1 || rep.Kernels[0].Kernel != o.kernel.Name || rep.Masks != nmasks ||
		len(rep.Variants) != 1 || rep.Variants[0] != o.variant.Name {
		return wrongf("%s: report covers the wrong job", o)
	}
	kr := rep.Kernels[0]
	if len(kr.Variants) != 1 || kr.Variants[0].Clean+kr.Variants[0].Leaking != nmasks {
		return wrongf("%s: report accounts for the wrong number of cells", o)
	}
	mask0Leaks, err := leakBit(kr.Variants[0].LeakMask, 0)
	if err != nil {
		return wrongf("%s: %v", o, err)
	}
	if o.kernel.ConstantTime {
		if mask0Leaks || kr.BaselineVerdict != "clean" {
			return wrongf("%s: constant-time kernel leaks at mask 0", o)
		}
	} else {
		found := false
		for _, c := range kr.Classes {
			if c.Class == taint.OptCacheAddr.String() && c.First.Mask == 0 {
				found = true
			}
		}
		if !mask0Leaks || kr.BaselineVerdict != "leaks" || !found {
			return wrongf("%s: table-lookup kernel does not leak through cache-addr at mask 0", o)
		}
	}
	if !bytes.Contains([]byte(text), []byte(o.kernel.Name+" — ")) {
		return wrongf("%s: formatted report does not name the kernel", o)
	}
	return nil
}

// leakBit reads bit i of a report's hex leak bitmap (bit i = the i-th
// enumerated mask leaked).
func leakBit(hexmap string, i int) (bool, error) {
	if len(hexmap) < 2*(i/8+1) {
		return false, fmt.Errorf("leak bitmap %q too short", hexmap)
	}
	b, err := strconv.ParseUint(hexmap[2*(i/8):2*(i/8)+2], 16, 8)
	if err != nil {
		return false, fmt.Errorf("leak bitmap %q: %v", hexmap, err)
	}
	return b&(1<<(i%8)) != 0, nil
}

// finish checks that each job's report is byte-identical at one worker
// and at one per CPU.
func (w *contractWL) finish() error {
	for _, o := range w.ops {
		want, ok := w.digests[o.String()]
		if !ok {
			continue
		}
		raw, err := w.runOp(o, 1)
		if err != nil {
			return err
		}
		if sha256.Sum256(raw) != want {
			return fmt.Errorf("%s: report at 1 worker differs from the report at %d", o, workers())
		}
	}
	return nil
}

// layerSums accumulates the traced run's layer timings.
type layerSums struct {
	sims, ops, programs                   int
	asm, build, run, twin, summ, emu, dif time.Duration
	gen, marshal                          time.Duration
	asmAlloc, pipeAlloc, summAlloc        uint64
	cycles, events                        uint64
}

// timed runs f and returns how long it took and how many heap bytes it
// allocated.
func timed(f func() error) (time.Duration, uint64, error) {
	a0 := allocBytes()
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	return d, allocBytes() - a0, err
}

// tracedCell recomposes kernels.Run from its public steps, timing each,
// and checks the recomposition against kernels.Run on the same input and
// against a twin run with invariants and cache self-checks off. It
// returns the cell's leak classes and the time of the recomposed steps.
func tracedCell(k kernels.Kernel, v diffcheck.CacheVariant, mask diffcheck.ToggleMask, ls *layerSums) ([]string, time.Duration, error) {
	start := time.Now()
	var unit asm.Unit
	d, a, err := timed(func() (err error) { unit, err = asm.AssembleUnit(k.Source); return err })
	if err != nil {
		return nil, 0, err
	}
	ls.asm += d
	ls.asmAlloc += a

	build := func(checks bool) (*pipeline.Machine, *mem.Memory, *taint.State, error) {
		st := taint.NewState()
		st.ObserveAddrs = true
		cfg := diffcheck.PipeConfig(mask)
		cfg.Taint = st
		cfg.CheckInvariants = checks
		hcfg := v.Config
		hcfg.SelfCheck = checks
		m := mem.New()
		if k.Setup != nil {
			k.Setup(m)
		}
		hier, err := cache.NewHierarchy(hcfg)
		if err != nil {
			return nil, nil, nil, err
		}
		if v.Stride {
			hier.AddListener(dmp.NewStride(hier))
		}
		mach, err := pipeline.New(cfg, m, hier)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, s := range unit.Secrets {
			if _, err := st.DefineSecret(taint.Secret{Name: s.Name, Base: s.Base, Len: s.Len}); err != nil {
				return nil, nil, nil, err
			}
		}
		return mach, m, st, nil
	}

	a0 := allocBytes()
	t0 := time.Now()
	mach, m, st, err := build(true)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	res, err := mach.Run(unit.Prog)
	t2 := time.Now()
	ls.pipeAlloc += allocBytes() - a0
	if err != nil {
		return nil, 0, err
	}
	ls.build += t1.Sub(t0)
	ls.run += t2.Sub(t1)
	if k.Check != nil {
		if err := k.Check(m); err != nil {
			return nil, 0, wrongf("%s/%s/%v: kernel output: %v", k.Name, v.Name, mask, err)
		}
	}
	var sum core.ScanSummary
	d, a, _ = timed(func() error { sum = core.Summarize(st, k.Name, mask.String()); return nil })
	ls.summ += d
	ls.summAlloc += a
	ls.cycles += uint64(res.Cycles)
	ls.events += sum.Total
	ls.sims++
	recomposed := time.Since(start)

	twin, _, _, err := build(false)
	if err != nil {
		return nil, 0, err
	}
	t0 = time.Now()
	tres, err := twin.Run(unit.Prog)
	ls.twin += time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if tres.Cycles != res.Cycles {
		return nil, 0, wrongf("%s/%s/%v: %d cycles with checks on, %d with them off", k.Name, v.Name, mask, res.Cycles, tres.Cycles)
	}

	ref, err := kernels.Run(context.Background(), k, diffcheck.PipeConfig(mask), v.Config, v.Stride, mask.String())
	if err != nil {
		return nil, 0, err
	}
	if !reflect.DeepEqual(ref, sum) {
		return nil, 0, wrongf("%s/%s/%v: recomposed run's leak events differ from kernels.Run's", k.Name, v.Name, mask)
	}
	var classes []string
	for _, c := range sum.ByClass {
		classes = append(classes, c.Opt)
	}
	return classes, recomposed, nil
}

// tracedOp recomposes one contract job cell by cell at one worker, then
// checks the per-cell leak classes against kernels.Enumerate's report
// for the same job and times Report.Marshal and Format on it. Its
// duration covers the recomposed cells and the marshalling, not the runs
// that check them.
func (w *contractWL) tracedOp(o contractOp, ls *layerSums) (time.Duration, error) {
	var total time.Duration
	cells := make([][]string, len(w.masks))
	for i, mask := range w.masks {
		classes, d, err := tracedCell(o.kernel, o.variant, mask, ls)
		if err != nil {
			return total, err
		}
		total += d
		cells[i] = classes
	}
	rep, err := kernels.Enumerate(context.Background(), kernels.Options{
		Kernels: []string{o.kernel.Name}, Variants: []string{o.variant.Name}, Masks: w.masks, Workers: 1,
	})
	if err != nil {
		return total, err
	}
	t0 := time.Now()
	raw, err := rep.Marshal()
	text := rep.Format()
	dm := time.Since(t0)
	ls.marshal += dm
	total += dm
	ls.ops++
	if err != nil {
		return total, err
	}
	if err := checkContractReport(rep, o, len(w.masks), text); err != nil {
		return total, err
	}
	if want, ok := w.digests[o.String()]; ok && sha256.Sum256(raw) != want {
		return total, wrongf("%s: report at 1 worker differs from the report at %d", o, workers())
	}
	perClass := map[string]int{}
	for i, classes := range cells {
		leaks, err := leakBit(rep.Kernels[0].Variants[0].LeakMask, i)
		if err != nil {
			return total, err
		}
		if leaks != (len(classes) > 0) {
			return total, wrongf("%s mask %v: recomposed verdict differs from Enumerate's", o, w.masks[i])
		}
		for _, c := range classes {
			perClass[c]++
		}
	}
	for _, c := range rep.Kernels[0].Classes {
		if perClass[c.Class] != c.Cells {
			return total, wrongf("%s: class %s leaks in %d recomposed cells, %d in Enumerate's report", o, c.Class, perClass[c.Class], c.Cells)
		}
		delete(perClass, c.Class)
	}
	if len(perClass) != 0 {
		return total, wrongf("%s: recomposed cells leak classes Enumerate's report lacks: %v", o, perClass)
	}
	return total, nil
}

func (w *contractWL) traced(d time.Duration, t *tally) (map[string]float64, error) {
	return tracedSim(d, t, w.round(), w.op, timeOp(func(i int) error {
		return w.runOpAt(i, 1)
	}), func(i int, ls *layerSums) (time.Duration, error) {
		return w.tracedOp(w.ops[i%len(w.ops)], ls)
	})
}

func (w *contractWL) runOpAt(i, nworkers int) error {
	_, err := w.runOp(w.ops[i%len(w.ops)], nworkers)
	return err
}

// tracedSim is the traced run shared by the simulation workloads
// (contract, check): three phases of d/3 each, the untraced configuration
// at one worker per CPU (process costs), the same at one worker (serial
// work, for parallel efficiency), and the recomposed, layer-timed ops at
// one worker. Each phase runs whole rounds, so the layer figures cover
// the same op mix as the end-to-end ones. opT returns the time of its
// recomposed steps alone, so the tracing overhead leaves out the runs
// that check the recomposition.
func tracedSim(d time.Duration, t *tally, round int, opP, op1 func(i int) (time.Duration, error), opT func(i int, ls *layerSums) (time.Duration, error)) (map[string]float64, error) {
	phase := d / 3
	r0 := readRuntime()
	latsP, wallP := loop(phase, round, 0, t, opP)
	r1 := readRuntime()
	lats1, wall1 := loop(phase, round, 0, t, op1)
	var ls layerSums
	latsT, _ := loop(phase, round, 0, t, func(i int) (time.Duration, error) { return opT(i, &ls) })
	if t.firstErr != nil {
		return nil, t.firstErr
	}
	nP := float64(len(latsP))
	perOpP := wallP.Seconds() / nP
	perOp1 := wall1.Seconds() / float64(len(lats1))
	m := layerMetrics(&ls)
	m["parallel.efficiency"] = perOp1 / (float64(workers()) * perOpP)
	m["process.cpu_ms_per_op"] = ms(r1.cpu-r0.cpu) / nP
	m["process.gc_cpu_ms_per_op"] = (r1.gcCPU - r0.gcCPU) * 1000 / nP
	// Ops differ in size, so the overhead compares the same ops: the
	// first n of the traced phase against the first n untraced at one
	// worker.
	n := min(len(latsT), len(lats1))
	m["trace.overhead_pct"] = (sum(latsT[:n])/sum(lats1[:n]) - 1) * 100
	return m, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// layerMetrics turns the sums into per-sim and per-op figures. Zero
// denominators leave the metric at 0: the workload never called that
// layer.
func layerMetrics(ls *layerSums) map[string]float64 {
	m := map[string]float64{}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	m["asm.assemble_us_per_sim"] = per(us(ls.asm), ls.sims)
	m["asm.alloc_kb_per_sim"] = per(float64(ls.asmAlloc)/1024, ls.sims)
	m["pipeline.build_us_per_sim"] = per(us(ls.build), ls.sims)
	m["pipeline.run_ms_per_sim"] = per(ms(ls.run), ls.sims)
	m["pipeline.checks_ms_per_sim"] = per(ms(ls.run-ls.twin), ls.sims)
	m["pipeline.cycles_per_sim"] = per(float64(ls.cycles), ls.sims)
	if ls.run > 0 {
		m["pipeline.sim_mcycles_per_s"] = float64(ls.cycles) / 1e6 / ls.run.Seconds()
	}
	m["pipeline.alloc_kb_per_sim"] = per(float64(ls.pipeAlloc)/1024, ls.sims)
	m["taint.events_per_sim"] = per(float64(ls.events), ls.sims)
	m["core.summarize_us_per_sim"] = per(us(ls.summ), ls.sims)
	m["core.summarize_alloc_kb_per_sim"] = per(float64(ls.summAlloc)/1024, ls.sims)
	m["kernels.marshal_us_per_op"] = per(us(ls.marshal), ls.ops)
	m["emu.run_us_per_sim"] = per(us(ls.emu), ls.sims)
	m["diffcheck.generate_us_per_program"] = per(us(ls.gen), ls.programs)
	m["mem.diff_us_per_sim"] = per(us(ls.dif), ls.sims)
	return m
}
