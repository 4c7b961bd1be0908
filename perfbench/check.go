package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pandora/internal/cache"
	"pandora/internal/diffcheck"
	"pandora/internal/dmp"
	"pandora/internal/emu"
	"pandora/internal/isa"
	"pandora/internal/mem"
	"pandora/internal/parallel"
	"pandora/internal/pipeline"
)

// Check-op corpus: the fixtures plus checkPrograms generated programs,
// each under the three scheduled masks plus checkExtraMasks random ones.
// A round runs the corpus seeds 1..checkCorpora once each.
const (
	checkPrograms   = 8
	checkExtraMasks = 1
	// checkCorpora is how many corpus seeds a round runs. They are fixed:
	// corpora drawn from --seed reach a pipeline-vs-emulator branch
	// divergence (with toggles rfc and sf on) in about one op in 1,500,
	// which would make the failed share depend on the seed.
	checkCorpora = 16
	// checkInjectPrograms sizes the corpus of the untimed op that runs
	// the injected SRA→SRL miscompile: `pandora check -inject -quick`'s
	// corpus (seed 1), which is known to reach a negative arithmetic
	// shift. Smaller corpora miss it on some seeds.
	checkInjectPrograms = 64
	// emuSteps bounds a golden run as diffcheck.RunCase bounds it.
	emuSteps = 1_000_000
)

// checkWL is the `check` workload: one op is one differential-oracle
// job through diffcheck.Check, as `pandora check` runs it, over the
// fixtures and a small generated corpus with its own corpus seed.
type checkWL struct {
	corpora   []int64 // one round's corpus seeds, in a seed-shuffled order
	fixtures  int
	runsPerOp int
}

func newCheck(seed int64) workload {
	n := len(diffcheck.Fixtures())
	w := &checkWL{fixtures: n, runsPerOp: (n + checkPrograms) * (3 + checkExtraMasks)}
	for s := int64(1); s <= checkCorpora; s++ {
		w.corpora = append(w.corpora, s)
	}
	// The corpora are fixed; the seed only orders the round.
	rand.New(rand.NewSource(seed)).Shuffle(len(w.corpora), func(i, j int) { w.corpora[i], w.corpora[j] = w.corpora[j], w.corpora[i] })
	return w
}

func (w *checkWL) round() int               { return len(w.corpora) }
func (w *checkWL) length(time.Duration) int { return 0 }
func (w *checkWL) close()                   {}

// corpusSeed is op i's corpus seed.
func (w *checkWL) corpusSeed(i int) int64 { return w.corpora[i%len(w.corpora)] }

// setUp's warm-up op runs corpus seed 1 whatever the seed, so setup_s
// does not depend on the seed.
func (w *checkWL) setUp() error { return w.runOp(1, workers()) }

func (w *checkWL) op(i int) (time.Duration, error) {
	return timeOp(func(i int) error { return w.runOp(w.corpusSeed(i), workers()) })(i)
}

func (w *checkWL) runOp(corpusSeed int64, nworkers int) error {
	rep, err := diffcheck.Check(context.Background(), diffcheck.Options{
		Programs:        checkPrograms,
		Seed:            corpusSeed,
		MasksPerProgram: checkExtraMasks,
		Workers:         nworkers,
	})
	if err != nil {
		return err
	}
	if err := w.checkReport(rep); err != nil {
		return fmt.Errorf("corpus seed %d: %w", corpusSeed, err)
	}
	return nil
}

// checkReport checks a check op's report: no pipeline-vs-emulator
// divergence, and exactly the programs and runs the corpus and mask
// schedule imply.
func (w *checkWL) checkReport(rep diffcheck.Report) error {
	if !rep.Ok() {
		return wrongf("%d pipeline-vs-emulator divergence(s): %v", len(rep.Failures), rep.Failures[0].Div)
	}
	if rep.Programs != w.fixtures+checkPrograms || rep.Runs != w.runsPerOp {
		return wrongf("%d programs / %d runs, schedule implies %d / %d",
			rep.Programs, rep.Runs, w.fixtures+checkPrograms, w.runsPerOp)
	}
	return nil
}

// finish runs the untimed op with the injected SRA→SRL miscompile; the
// oracle must report a divergence, or the zero divergences of the timed
// ops prove nothing.
func (w *checkWL) finish() error {
	rep, err := diffcheck.Check(context.Background(), diffcheck.Options{
		Programs:        checkInjectPrograms,
		Seed:            1,
		MasksPerProgram: checkExtraMasks,
		Workers:         workers(),
		Subject:         diffcheck.BugSRAAsSRL,
		MaxFailures:     1,
	})
	if err != nil {
		return err
	}
	if rep.Ok() {
		return fmt.Errorf("injected SRA→SRL miscompile not caught")
	}
	return nil
}

// checkCase is one differential run of a check op's schedule.
type checkCase struct {
	c       diffcheck.Case
	masks   []diffcheck.ToggleMask
	variant diffcheck.CacheVariant
}

// schedule rebuilds the (case, masks, variant) schedule diffcheck.Check
// documents for a corpus seed: fixtures first, then generated programs
// seeded by parallel.Seed(seed, index); case i runs under masks 0, all,
// the rotating i*73 mod 512 and random draws from parallel.Seed(seed+1,
// i), on cache variant i mod 6.
func (w *checkWL) schedule(seed int64, ls *layerSums) []checkCase {
	cases := diffcheck.Fixtures()
	for i := 0; i < checkPrograms; i++ {
		rng := rand.New(rand.NewSource(parallel.Seed(seed, i)))
		t0 := time.Now()
		prog := diffcheck.Generate(rng)
		ls.gen += time.Since(t0)
		ls.programs++
		cases = append(cases, diffcheck.Case{Name: fmt.Sprintf("gen-%04d", i), Prog: prog, Init: diffcheck.InitMemory})
	}
	variants := diffcheck.CacheVariants()
	out := make([]checkCase, len(cases))
	for i, c := range cases {
		rng := rand.New(rand.NewSource(parallel.Seed(seed+1, i)))
		masks := []diffcheck.ToggleMask{0, diffcheck.AllMasks - 1, diffcheck.ToggleMask(i * 73 % diffcheck.AllMasks)}
		for k := 0; k < checkExtraMasks; k++ {
			masks = append(masks, diffcheck.ToggleMask(rng.Intn(diffcheck.AllMasks)))
		}
		out[i] = checkCase{c: c, masks: masks, variant: variants[i%len(variants)]}
	}
	return out
}

// tracedDiffRun recomposes diffcheck.RunCase from its public steps,
// timing each: the emulator's golden run, pipeline build and run, then
// the register and mem.Diff comparison. It checks the recomposed verdict
// against RunCase and the cycle count against a twin run with invariants
// and cache self-checks off.
func tracedDiffRun(c diffcheck.Case, mask diffcheck.ToggleMask, v diffcheck.CacheVariant, ls *layerSums) (time.Duration, error) {
	golden := emu.New(mem.New())
	if c.Init != nil {
		c.Init(golden.Mem)
	}
	start := time.Now()
	err := golden.Run(c.Prog, emuSteps)
	ls.emu += time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("%s: golden run: %w", c.Name, err)
	}

	build := func(checks bool) (*pipeline.Machine, *mem.Memory, error) {
		pm := mem.New()
		if c.Init != nil {
			c.Init(pm)
		}
		hcfg := v.Config
		hcfg.SelfCheck = checks
		hier, err := cache.NewHierarchy(hcfg)
		if err != nil {
			return nil, nil, err
		}
		if v.Stride {
			hier.AddListener(dmp.NewStride(hier))
		}
		cfg := diffcheck.PipeConfig(mask)
		cfg.CheckInvariants = checks
		m, err := pipeline.New(cfg, pm, hier)
		return m, pm, err
	}
	a0 := allocBytes()
	t0 := time.Now()
	m, pm, err := build(true)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	res, err := m.Run(c.Prog)
	t2 := time.Now()
	ls.pipeAlloc += allocBytes() - a0
	if err != nil {
		return 0, wrongf("%s mask %v on %s: pipeline error: %v", c.Name, mask, v.Name, err)
	}
	ls.build += t1.Sub(t0)
	ls.run += t2.Sub(t1)
	ls.cycles += uint64(res.Cycles)
	ls.sims++

	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if !m.RegTainted(r) && m.Reg(r) != golden.Regs[r] {
			return 0, wrongf("%s mask %v on %s: %v = %#x, emulator has %#x", c.Name, mask, v.Name, r, m.Reg(r), golden.Regs[r])
		}
	}
	t0 = time.Now()
	diffs := mem.Diff(pm, golden.Mem, 0)
	ls.dif += time.Since(t0)
	for _, d := range diffs {
		if !m.MemTainted(d.Addr) {
			return 0, wrongf("%s mask %v on %s: mem[%#x] = %#x, emulator has %#x", c.Name, mask, v.Name, d.Addr, d.A, d.B)
		}
	}
	recomposed := time.Since(start)

	twin, _, err := build(false)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	tres, err := twin.Run(c.Prog)
	ls.twin += time.Since(t0)
	if err != nil {
		return 0, err
	}
	if tres.Cycles != res.Cycles {
		return 0, wrongf("%s mask %v on %s: %d cycles with checks on, %d with them off", c.Name, mask, v.Name, res.Cycles, tres.Cycles)
	}
	if div := diffcheck.RunCase(c, mask, v, nil); div != nil {
		return 0, wrongf("%s mask %v on %s: recomposed run agrees with the emulator, RunCase reports %v", c.Name, mask, v.Name, div)
	}
	return recomposed, nil
}

// tracedOp recomposes one check op run by run at one worker. Its
// duration covers the recomposed runs and corpus generation, not the
// twin and RunCase runs that check them.
func (w *checkWL) tracedOp(i int, ls *layerSums) (time.Duration, error) {
	t0 := time.Now()
	sched := w.schedule(w.corpusSeed(i), ls)
	total := time.Since(t0)
	runs := 0
	for _, cc := range sched {
		for _, mask := range cc.masks {
			d, err := tracedDiffRun(cc.c, mask, cc.variant, ls)
			if err != nil {
				return total, err
			}
			total += d
			runs++
		}
	}
	if runs != w.runsPerOp {
		return total, wrongf("recomposed schedule has %d runs, diffcheck.Check %d", runs, w.runsPerOp)
	}
	return total, nil
}

func (w *checkWL) traced(d time.Duration, t *tally) (map[string]float64, error) {
	return tracedSim(d, t, w.round(), w.op,
		timeOp(func(i int) error { return w.runOp(w.corpusSeed(i), 1) }),
		w.tracedOp)
}
