package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"time"

	"chordbalance/internal/sim"
	"chordbalance/internal/strategy"
	"chordbalance/internal/xrand"
)

// canarySeed seeds the warm-up trials of both simulator workloads. It
// does not depend on -seed, so the warm-up doubles as a canary: its
// digest is compared with testdata on every run, whatever the seed,
// and a change that alters any simulated statistic fails loudly even
// on a seed nobody recorded a golden for.
const canarySeed = 0xC0FFEE5EED

// simConfig is one configuration of a simulator workload's round.
type simConfig struct {
	label string
	build func(seed uint64) sim.Config
}

// simWorkload describes a simulator workload: one op is one trial of
// each configuration in turn.
type simWorkload struct {
	name    string
	configs []simConfig
	// warmOps is the number of untimed canary ops; their (normalised)
	// duration is the workload's setup_s.
	warmOps int
	// timedOps turns -seconds into a fixed op count, so a run's work, its
	// allocation counts and its digest depend on (seed, seconds) alone.
	timedOps func(seconds int) int
	kernel   kernelSpec
	// sliceRun calibrates inside sim.Run, at every strategy decision,
	// for trials long enough that the host's speed changes under them.
	sliceRun bool
	// shortDiv, when set, divides the network and the job under -short
	// so the smoke test stays short; digests are then not compared.
	shortDiv int
}

// paperConfig returns the paper's headline network with the given
// strategy ("" for none) and churn rate.
func paperConfig(strat string, churn float64) func(seed uint64) sim.Config {
	return func(seed uint64) sim.Config {
		cfg := sim.Config{Nodes: 1000, Tasks: 100000, ChurnRate: churn, Seed: seed}
		if strat != "" {
			s, ok := strategy.ByName(strat)
			if !ok {
				panic("benchmarks: unknown strategy " + strat) // a typo in this file
			}
			cfg.Strategy = s
		}
		return cfg
	}
}

// simWorkloads returns the two simulator workloads.
func simWorkloads() []simWorkload {
	return []simWorkload{
		{
			name: "sim-paper-1k",
			configs: []simConfig{
				{label: "none", build: paperConfig("", 0)},
				{label: "churn", build: paperConfig("", 0.01)},
				{label: "random", build: paperConfig("random", 0)},
				{label: "neighbor", build: paperConfig("neighbor", 0)},
				{label: "invitation", build: paperConfig("invitation", 0)},
			},
			warmOps: 8,
			// a round takes about a quarter of a second on the reference host
			timedOps: func(seconds int) int { return 4 * seconds },
			kernel:   kernelSimSmall,
		},
		{
			name: "sim-scale-100k",
			configs: []simConfig{
				{label: "random", build: func(seed uint64) sim.Config {
					return sim.Config{Nodes: 100000, Tasks: 2000000, ChurnRate: 0.001,
						Strategy: strategy.NewRandomInjection(), Seed: seed}
				}},
			},
			warmOps: 1,
			// a trial takes five to six seconds on the reference host
			timedOps: func(seconds int) int {
				if n := (seconds + 2) / 6; n > 2 {
					return n
				}
				return 2
			},
			kernel:   kernelSimLarge,
			sliceRun: true,
			shortDiv: 20,
		},
	}
}

// sliceStrategy wraps a strategy so that every decision round first
// runs the calibration kernel: the engine calls Decide every few
// ticks, which cuts a seconds-long sim.Run into slices short enough
// for the host's speed to be constant across each. The kernel touches
// no simulation state and draws no randomness, so results are
// unchanged.
type sliceStrategy struct {
	inner strategy.Strategy
	cal   *calibrator
}

// Name returns the wrapped strategy's name.
func (s *sliceStrategy) Name() string { return s.inner.Name() }

// Decide calibrates, then delegates.
func (s *sliceStrategy) Decide(w strategy.World) {
	s.cal.mark()
	s.inner.Decide(w)
}

// trialRecord is what the harness keeps of one trial.
type trialRecord struct {
	config              int
	res                 *sim.Result
	buildRaw, buildNorm time.Duration
	runRaw, runNorm     time.Duration
	buildAllocs         allocSnap
	runAllocs           allocSnap
}

// total returns the trial's reference-host duration.
func (t *trialRecord) total() time.Duration { return t.buildNorm + t.runNorm }

// simRunner executes trials of one workload and keeps their records.
type simRunner struct {
	w   simWorkload
	cal *calibrator
	// div divides every trial's network and job (1 outside -short).
	div int
}

// trial builds and runs one simulation. With a tracer it records the
// two calls as spans under parent and splits the allocation counters
// between them (which stops the world, so only traced runs do it).
func (r *simRunner) trial(config int, seed uint64, tr *tracer, parent, op int) (trialRecord, error) {
	cfg := r.w.configs[config].build(seed)
	cfg.Nodes /= r.div
	cfg.Tasks /= r.div
	if r.w.sliceRun {
		cfg.Strategy = &sliceStrategy{inner: cfg.Strategy, cal: r.cal}
	}
	rec := trialRecord{config: config}
	// Every trial starts from a collected heap, so where the collector's
	// cycles fall inside a trial depends on the trial, not on its
	// predecessors. The collection and the stop-the-world counter reads
	// happen before a slice's opening mark or after its closing one.
	runtime.GC()
	var a0, a1, a2 allocSnap
	if tr != nil {
		a0 = readAllocs()
	}
	start := r.cal.mark()
	id := tr.begin("sim.New", parent, op)
	s, err := sim.New(cfg)
	tr.end(id)
	if err != nil {
		return rec, fmt.Errorf("%s: sim.New: %w", r.w.name, err)
	}
	mid := r.cal.mark()
	rec.buildRaw, rec.buildNorm = r.cal.between(start, mid)
	if tr != nil {
		a1 = readAllocs()
		mid = r.cal.mark()
	}
	id = tr.begin("sim.Run", parent, op)
	rec.res = s.Run()
	tr.end(id)
	rec.runRaw, rec.runNorm = r.cal.between(mid, r.cal.mark())
	if tr != nil {
		a2 = readAllocs()
		rec.buildAllocs, rec.runAllocs = a1.sub(a0), a2.sub(a1)
	}
	return rec, r.cal.err
}

// op runs one trial of every configuration; opIndex and base pick the
// trial seeds.
func (r *simRunner) op(base uint64, opIndex int, tr *tracer) ([]trialRecord, error) {
	root := tr.begin("op", -1, opIndex)
	defer tr.end(root)
	out := make([]trialRecord, 0, len(r.w.configs))
	for i := range r.w.configs {
		seed := xrand.SplitSeed(base, uint64(opIndex*len(r.w.configs)+i))
		rec, err := r.trial(i, seed, tr, root, opIndex)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// opTotals returns an op's raw and reference-host durations.
func opTotals(trials []trialRecord) (raw, norm time.Duration) {
	for i := range trials {
		raw += trials[i].buildRaw + trials[i].runRaw
		norm += trials[i].total()
	}
	return raw, norm
}

// digester accumulates the simulated statistics of a sequence of
// trials; sum can be taken after any trial.
type digester struct {
	h hash.Hash
}

func newDigester() *digester { return &digester{h: sha256.New()} }

// add folds one trial's simulated statistics into the digest: ticks,
// completion, the runtime factor bit for bit, every message counter
// (strategy kinds in sorted order) and the final virtual-node count.
func (d *digester) add(res *sim.Result) {
	m := res.Messages
	kinds := make([]string, 0, len(m.Strategy))
	for k := range m.Strategy {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(d.h, "%d %t %016x %d %d %d %d %d %d", res.Ticks, res.Completed,
		math.Float64bits(res.RuntimeFactor), m.Joins, m.Leaves, m.SybilsCreated,
		m.SybilsDropped, m.LookupMessages, m.Maintenance)
	for _, k := range kinds {
		fmt.Fprintf(d.h, " %s=%d", k, m.Strategy[k])
	}
	fmt.Fprintf(d.h, " %d\n", res.FinalVNodes)
}

// sum returns the digest so far as 16 hex digits.
func (d *digester) sum() string {
	return hex.EncodeToString(d.h.Sum(nil)[:8])
}

// trialValid checks the invariants every finished trial must satisfy,
// whatever its seed: the job completed, took at least the ideal time,
// and the runtime factor is the ratio of the two.
func trialValid(res *sim.Result) bool {
	return res != nil && res.Completed && res.IdealTicks > 0 && res.Ticks >= res.IdealTicks &&
		res.RuntimeFactor == float64(res.Ticks)/float64(res.IdealTicks)
}

// tally counts an op's trials as attempted, those that break an
// invariant as failed, folds their statistics into d and returns the
// cumulative digest after the op.
func (o *outcome) tally(trials []trialRecord, d *digester) string {
	for i := range trials {
		o.attempted++
		if !trialValid(trials[i].res) {
			o.failed++
		}
		d.add(trials[i].res)
	}
	return d.sum()
}

// strategyMsgs sums a trial's strategy message counters.
func strategyMsgs(res *sim.Result) int {
	t := 0
	for _, v := range res.Messages.Strategy {
		t += v
	}
	return t
}

// runSim runs one simulator workload and fills an outcome.
func runSim(w simWorkload, opt options, golden *goldenSet) (*outcome, error) {
	out := newOutcome()
	nTimed := w.timedOps(opt.seconds)
	if opt.short {
		nTimed = 1
	}
	if opt.traced {
		// a third of the timed length, each op run untraced and traced
		nTimed = (nTimed + 2) / 3
	}
	warm := w.warmOps
	if opt.short && warm > 1 {
		warm = 1
	}
	marksPerTrial := 6
	if w.sliceRun {
		marksPerTrial = 64
	}
	cal, err := newCalibrator(w.kernel, (warm+2*nTimed+1)*len(w.configs)*marksPerTrial+64)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	r := &simRunner{w: w, cal: cal, div: 1}
	if opt.short && w.shortDiv > 0 {
		r.div = w.shortDiv
		golden = nil
	}

	// Warm-up: fixed canary seeds, untimed, its digest always checked.
	setupLead := sinceStart()
	canary := newDigester()
	var canarySums []string
	var warmRaw, warmNorm time.Duration
	for o := 0; o < warm; o++ {
		trials, err := r.op(canarySeed, o, nil)
		if err != nil {
			return nil, err
		}
		canarySums = append(canarySums, out.tally(trials, canary))
		raw, norm := opTotals(trials)
		warmRaw += raw
		warmNorm += norm
	}
	out.checkDigest(golden, "canary", canarySums, opt)

	// Timed phase. Results are kept and digested afterwards so that the
	// allocation counters see the simulator alone.
	var tr *tracer
	if opt.traced {
		tr = newTracer(0, nTimed*(1+2*len(w.configs))+16)
	}
	untraced := make([][]trialRecord, 0, nTimed)
	traced := make([][]trialRecord, 0, nTimed)
	allocs0 := readAllocs()
	cpu0 := cpuTime()
	for o := 0; o < nTimed; o++ {
		trials, err := r.op(opt.seed, o, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, trials)
	}
	allocs := readAllocs().sub(allocs0)
	cpu := cpuTime() - cpu0
	for o := 0; o < nTimed && opt.traced; o++ {
		trials, err := r.op(opt.seed, o, tr)
		if err != nil {
			return nil, err
		}
		traced = append(traced, trials)
	}

	// Outputs: invariants, the per-seed digest, and traced twins equal.
	dig := newDigester()
	var sums []string
	var opRaw, opNorm []float64
	var sumRaw, sumNorm time.Duration
	var ticks, msgs int
	var factors []float64
	for o, trials := range untraced {
		sums = append(sums, out.tally(trials, dig))
		for i := range trials {
			res := trials[i].res
			ticks += res.Ticks
			msgs += strategyMsgs(res)
			factors = append(factors, res.RuntimeFactor)
			if opt.traced && !sameStatistics(res, traced[o][i].res) {
				out.failed++
				out.note("trial %d/%d: traced and untraced runs of one seed differ", o, i)
			}
		}
		raw, norm := opTotals(trials)
		sumRaw += raw
		sumNorm += norm
		opRaw = append(opRaw, float64(raw)/1e3)
		opNorm = append(opNorm, float64(norm)/1e3)
	}
	out.checkDigest(golden, fmt.Sprintf("seed-%d", opt.seed), sums, opt)

	ops := float64(nTimed)
	out.samples = nTimed
	out.endToEnd["setup_s"] = (setupLead + warmNorm).Seconds()
	out.endToEnd["ops_per_s"] = ops / sumNorm.Seconds()
	out.endToEnd["op_p50_us"] = median(opNorm)
	out.endToEnd["allocs_per_op"] = float64(allocs.mallocs) / ops
	out.endToEnd["alloc_bytes_per_op"] = float64(allocs.bytes) / ops
	out.note("simulated statistics: ticks_per_op=%g strategy_msgs_per_op=%g runtime_factor_mean=%.6f",
		float64(ticks)/ops, float64(msgs)/ops, mean(factors))

	pl := out.perLayer
	pl["host.calib_us"] = cal.medianMicros()
	pl["raw.ops_per_s"] = ops / sumRaw.Seconds()
	pl["raw.op_p50_us"] = median(opRaw)
	pl["raw.setup_s"] = (setupLead + warmRaw).Seconds()
	pl["proc.cpu_us_per_op"] = float64(cpu) / 1e3 / ops
	sortedOps := sortedCopy(opNorm)
	pl["client.op_p90_us"] = percentile(sortedOps, 0.90)
	pl["client.op_p99_us"] = percentile(sortedOps, 0.99)
	pl["sim.ticks_per_op"] = float64(ticks) / ops
	pl["sim.strategy_msgs_per_op"] = float64(msgs) / ops
	pl["sim.runtime_factor_mean"] = mean(factors)
	if opt.traced {
		simLayerMetrics(w, untraced, traced, pl)
		sizes := w.configs[0].build(opt.seed)
		if err := simDrills(sizes.Nodes/r.div, sizes.Tasks/r.div, opt.seed, cal, tr, pl); err != nil {
			return nil, err
		}
		out.spans = tr.spans
	}
	pl["proc.peak_rss_mb"] = peakRSSMB()
	return out, cal.err
}

// sameStatistics reports whether two results carry the same simulated
// statistics (the digested fields).
func sameStatistics(a, b *sim.Result) bool {
	da, db := newDigester(), newDigester()
	da.add(a)
	db.add(b)
	return da.sum() == db.sum()
}

// simLayerMetrics fills the sim.* timing metrics from the traced
// executions and the tracing overhead from the untraced twins.
func simLayerMetrics(w simWorkload, untraced, traced [][]trialRecord, pl map[string]float64) {
	var build, run []float64
	var buildAllocs, runAllocs uint64
	var runNorm time.Duration
	var ticks int
	var sumTraced, sumUntraced time.Duration
	perConfig := make([][]float64, len(w.configs))
	for o, trials := range traced {
		for i := range trials {
			t := &trials[i]
			build = append(build, float64(t.buildNorm)/1e3)
			run = append(run, float64(t.runNorm)/1e3)
			buildAllocs += t.buildAllocs.mallocs
			runAllocs += t.runAllocs.mallocs
			runNorm += t.runNorm
			ticks += t.res.Ticks
			perConfig[t.config] = append(perConfig[t.config], float64(t.total())/1e3)
			sumTraced += t.total()
			sumUntraced += untraced[o][i].total()
		}
	}
	ops := float64(len(traced))
	pl["sim.build_p50_us"] = median(build)
	pl["sim.run_p50_us"] = median(run)
	pl["sim.build_allocs_per_op"] = float64(buildAllocs) / ops
	pl["sim.run_allocs_per_op"] = float64(runAllocs) / ops
	if ticks > 0 {
		pl["sim.tick_us"] = float64(runNorm) / 1e3 / float64(ticks)
	}
	for i, c := range w.configs {
		pl["sim.trial_p50_us."+c.label] = median(perConfig[i])
	}
	if sumTraced > 0 {
		pl["trace.overhead_frac"] = 1 - float64(sumUntraced)/float64(sumTraced)
	}
}
