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

// A Cell is one experiment configuration. Config is the template every
// trial copies; its Seed, Strategy and Trace are set per trial. Strategy
// names the strategy.ByName policy of which each trial runs a fresh
// instance, since strategies keep per-run state; "" runs none.
type Cell struct {
	Strategy string
	Config   sim.Config
	// perTrial, when non-nil, derives further settings of a trial's
	// config from its finished seed.
	perTrial func(*sim.Config)
}

// trialConfig builds trial i of c, numbered cell in its experiment.
func (c Cell) trialConfig(opt Options, cell, i int) (sim.Config, error) {
	cfg := c.Config
	cfg.Seed = trialSeed(opt.Seed, cell, i)
	cfg.Strategy = nil
	if c.Strategy != "" {
		s, ok := strategy.ByName(c.Strategy)
		if !ok {
			return sim.Config{}, fmt.Errorf("experiments: unknown strategy %q", c.Strategy)
		}
		cfg.Strategy = s
	}
	if c.perTrial != nil {
		c.perTrial(&cfg)
	}
	return cfg, nil
}

// runTrials runs opt.Trials trials of c, numbered cell, on opt.Workers
// workers, each traced through opt.Trace when it is set, and hands every
// result to fold in trial order, so a fold sums floats in the same order
// on any number of workers.
func runTrials(c Cell, cell int, opt Options, fold func(i int, res *sim.Result) error) error {
	results, err := parallel.MapErr(opt.Trials, opt.Workers, func(i int) (*sim.Result, error) {
		cfg, err := c.trialConfig(opt, cell, i)
		if err != nil {
			return nil, err
		}
		if opt.Trace != nil {
			cfg.Trace = opt.Trace(cell, i)
		}
		res, err := sim.Run(cfg)
		if cerr := cfg.Trace.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("experiments: closing trial %d trace: %w", i, cerr)
		}
		return res, err
	})
	if err != nil {
		return err
	}
	for i, res := range results {
		if err := fold(i, res); err != nil {
			return err
		}
	}
	return nil
}

// FactorStat runs trials of one cell and aggregates the runtime factor;
// a trial that does not complete is an error.
func FactorStat(c Cell, cell int, opt Options) (TrialStat, error) {
	var o stats.Online
	err := runTrials(c, cell, opt, func(i int, res *sim.Result) error {
		if !res.Completed {
			return fmt.Errorf("experiments: trial %d did not complete in %d ticks", i, res.Ticks)
		}
		o.Add(res.RuntimeFactor)
		return nil
	})
	if err != nil {
		return TrialStat{}, err
	}
	return onlineStat(o), nil
}

func onlineStat(o stats.Online) TrialStat {
	return TrialStat{
		N:    o.N(),
		Mean: o.Mean(),
		CI95: o.ConfidenceInterval95(),
		Min:  o.Min(),
		Max:  o.Max(),
	}
}
