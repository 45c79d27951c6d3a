// Package experiments defines one reproducible constructor per table and
// figure in the paper's evaluation (§III table I, §VI tables and figures),
// plus the §VI text results and the ablations DESIGN.md calls out. Each
// experiment runs deterministic seeded trials — optionally in parallel —
// and returns both structured results and render-ready tables.
package experiments

import (
	"fmt"

	"chordbalance/internal/obs"
	"chordbalance/internal/parallel"
	"chordbalance/internal/sim"
	"chordbalance/internal/stats"
	"chordbalance/internal/strategy"
)

// Options control an experiment run.
type Options struct {
	// Trials per configuration cell. 0 uses the experiment's default
	// (chosen to finish in seconds on a laptop; the paper used 100).
	Trials int
	// Workers bounds trial parallelism; 0 uses GOMAXPROCS.
	Workers int
	// Seed is the base seed; trial i of cell c uses a deterministic
	// stream derived from (Seed, c, i).
	Seed uint64
	// Trace, when non-nil, supplies one tracer per (cell, trial) —
	// typically obs.New over a per-trial file or memory sink. Each trial
	// owns its tracer exclusively, so parallel sweeps need no locking,
	// and the tracer is closed when its trial's run returns. nil (the
	// default) disables tracing entirely. A trial whose hook returns nil
	// runs untraced.
	Trace func(cell, trial int) *obs.Tracer
}

func (o Options) withDefaults(defaultTrials int) Options {
	if o.Trials == 0 {
		o.Trials = defaultTrials
	}
	return o
}

// trialSeed derives the seed for one trial of one cell, keeping cells and
// trials statistically independent but reproducible.
func trialSeed(base uint64, cell, trial int) uint64 {
	x := base ^ 0x9e3779b97f4a7c15*uint64(cell+1) ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	// One SplitMix64-style finalization round.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// TrialStat aggregates one cell's runtime factors across trials.
type TrialStat struct {
	N    int
	Mean float64
	CI95 float64
	Min  float64
	Max  float64
}

// String renders the stat as "mean ±ci95 [n trials]" for table cells.
func (s TrialStat) String() string {
	return fmt.Sprintf("%.3f ±%.3f [%d trials]", s.Mean, s.CI95, s.N)
}

// ConfigFn builds the simulation configuration for one trial. It must
// return a fresh strategy instance each call: strategies carry per-run
// state.
type ConfigFn func(seed uint64) sim.Config

// Spec names one experiment cell: the paper's variables that matter for
// reporting.
type Spec struct {
	Name           string
	Nodes          int
	Tasks          int
	StrategyName   string // for strategy.ByName; "" means none
	ChurnRate      float64
	Heterogeneous  bool
	WorkByStrength bool
	MaxSybils      int
	SybilThreshold int
	NumSuccessors  int
}

// Config builds the sim configuration for one trial of this spec.
func (sp Spec) Config(seed uint64) sim.Config {
	var strat strategy.Strategy
	if sp.StrategyName != "" {
		s, ok := strategy.ByName(sp.StrategyName)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown strategy %q", sp.StrategyName))
		}
		strat = s
	}
	return sim.Config{
		Nodes:          sp.Nodes,
		Tasks:          sp.Tasks,
		Strategy:       strat,
		ChurnRate:      sp.ChurnRate,
		Heterogeneous:  sp.Heterogeneous,
		WorkByStrength: sp.WorkByStrength,
		MaxSybils:      sp.MaxSybils,
		SybilThreshold: sp.SybilThreshold,
		NumSuccessors:  sp.NumSuccessors,
		Seed:           seed,
	}
}

// FactorStat runs trials of one cell and aggregates the runtime factor.
func FactorStat(fn ConfigFn, cell int, opt Options) (TrialStat, error) {
	results, err := parallel.MapErr(opt.Trials, opt.Workers, func(i int) (float64, error) {
		cfg := fn(trialSeed(opt.Seed, cell, i))
		if opt.Trace != nil {
			cfg.Trace = opt.Trace(cell, i)
		}
		res, err := sim.Run(cfg)
		if cerr := cfg.Trace.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("experiments: closing trial %d trace: %w", i, cerr)
		}
		if err != nil {
			return 0, err
		}
		if !res.Completed {
			return 0, fmt.Errorf("experiments: trial %d did not complete in %d ticks", i, res.Ticks)
		}
		return res.RuntimeFactor, nil
	})
	if err != nil {
		return TrialStat{}, err
	}
	var o stats.Online
	for _, f := range results {
		o.Add(f)
	}
	return TrialStat{
		N:    o.N(),
		Mean: o.Mean(),
		CI95: o.ConfidenceInterval95(),
		Min:  o.Min(),
		Max:  o.Max(),
	}, nil
}

// SpecFactor is FactorStat for a Spec.
func SpecFactor(sp Spec, cell int, opt Options) (TrialStat, error) {
	return FactorStat(sp.Config, cell, opt)
}
