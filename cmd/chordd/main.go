// Command chordd runs networked Chord nodes: one or many hosts in one
// process, speaking the internal/wire protocol over loopback TCP. With
// -join empty it creates a ring (and a collector for progress metrics);
// with -join set it brings additional hosts onto an existing ring, so a
// multi-process cluster is assembled by running chordd once per machine
// with the same seed address.
//
// Example — a 16-host ring running the invitation strategy, then a
// second process adding 4 more hosts:
//
//	chordd -nodes 16 -strategy invitation -seed 77 -duration 30s
//	chordd -join 127.0.0.1:9000 -collector 127.0.0.1:9001 -nodes 4 -index-base 16
//
// Flags mirror cmd/dhtsim where the concepts coincide (strategy names,
// seeds, decision cadence, Sybil caps, fault plan); the differences are
// the networked runtime's own knobs: tick length, RPC timeouts, and
// listen/join addresses. Drive a running cluster with cmd/dhtload; see
// docs/NETWORK.md for the protocol and lifecycle.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chordbalance/internal/faults"
	"chordbalance/internal/netchord"
	"chordbalance/internal/obs"
	"chordbalance/internal/strategy"
	"chordbalance/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chordd:", err)
		os.Exit(1)
	}
}

// summary is chordd's end-of-run report.
type summary struct {
	Hosts      int        `json:"hosts"`
	Strategy   string     `json:"strategy"`
	Progress   wire.Stats `json:"progress"`
	Injections int        `json:"injections"`
	Churns     int        `json:"churns"`
	Sybils     int        `json:"sybils"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chordd", flag.ContinueOnError)
	var (
		nodes     = fs.Int("nodes", 1, "hosts to run in this process")
		strat     = fs.String("strategy", "none", strings.Join(strategy.Names(), "|"))
		seed      = fs.Uint64("seed", 1, "deterministic seed for the hosts' RNG streams")
		join      = fs.String("join", "", "seed address of an existing ring (empty = create a new ring)")
		collector = fs.String("collector", "", "collector address to report to (with -join; ring creators start their own)")
		indexBase = fs.Int("index-base", 0, "host index offset (keep distinct per process so RNG streams differ)")
		duration  = fs.Duration("duration", 0, "run length (0 = until SIGINT/SIGTERM)")
		jsonOut   = fs.Bool("json", false, "emit the summary as JSON (for scripting)")

		tick      = fs.Duration("tick", 5*time.Millisecond, "logical tick length (scales timeouts, backoff, cadences)")
		succs     = fs.Int("successors", 8, "successor list length")
		replicas  = fs.Int("replicas", 2, "replication degree")
		consume   = fs.Int("consume", 1, "task units a host consumes per tick")
		every     = fs.Int("decide-every", 5, "strategy decision cadence in ticks")
		maxSybils = fs.Int("maxsybils", 8, "Sybil cap per host")
		threshold = fs.Uint64("threshold", 0, "sybilThreshold: residual at or below which a host seeks work")
		invite    = fs.Uint64("invite-threshold", 8, "workload above which an invitation-strategy node calls for help")
		churnProb = fs.Float64("churn-prob", 0, "per-decision leave+rejoin probability (-strategy churn without it: 0.05)")
		dataDir   = fs.String("data", "", "base directory for durable segment logs (empty = memory-backed); restart with the same -seed and -data to recover from the logs")
		noSync    = fs.Bool("nosync", false, "skip fsync-on-acknowledge (benchmarks only: crashes may lose acked writes)")
		readWork  = fs.Uint64("read-work", 0, "task units a served read charges its owner, so read pressure drives the strategies (0 = reads are free; see docs/STREAMING.md)")

		// Deterministic fault plan, mapped onto the live sockets
		// (docs/NETWORK.md; decision streams per docs/FAULTS.md).
		dropRate  = fs.Float64("drop-rate", 0, "per-message drop probability")
		dupRate   = fs.Float64("dup-rate", 0, "per-message duplication probability")
		delayRate = fs.Float64("delay-rate", 0, "per-message delay probability")
		maxDelay  = fs.Int("max-delay-ticks", 0, "delay bound in ticks (0 = plan default)")
		partFrac  = fs.Float64("partition", 0, "partition fraction of the ID space (0 = none)")
		partStart = fs.Int("partition-start", 0, "tick the partition forms")
		partHeal  = fs.Int("partition-heal", 0, "tick the partition heals (0 = never)")
		faultSeed = fs.Uint64("fault-seed", 0, "fault plan seed (0 = derive from -seed)")

		tracePath = fs.String("trace", "", "write the collector's per-report JSONL trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if _, ok := strategy.ByName(*strat); !ok {
		return fmt.Errorf("unknown strategy %q", *strat)
	}
	if *strat == "churn" && *churnProb == 0 {
		*churnProb = 0.05 // the churn strategy is the baseline plus turnover
	}
	cfg := netchord.Config{
		TickEvery:          *tick,
		SuccessorListLen:   *succs,
		Replicas:           *replicas,
		ConsumePerTick:     *consume,
		DecisionEveryTicks: *every,
		MaxSybils:          *maxSybils,
		SybilThreshold:     *threshold,
		InviteThreshold:    *invite,
		ChurnProb:          *churnProb,
		DataDir:            *dataDir,
		NoSync:             *noSync,
		ReadWorkUnits:      *readWork,
	}.WithDefaults()

	var nf *netchord.NetFaults
	plan := faults.Plan{
		Seed:           *faultSeed,
		DropRate:       *dropRate,
		DupRate:        *dupRate,
		DelayRate:      *delayRate,
		MaxDelayTicks:  *maxDelay,
		PartitionFrac:  *partFrac,
		PartitionStart: *partStart,
		PartitionHeal:  *partHeal,
	}
	if plan.Seed == 0 {
		plan.Seed = *seed
	}
	if !plan.Zero() {
		var err error
		if nf, err = netchord.NewNetFaults(plan, cfg.TickEvery); err != nil {
			return err
		}
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		sink, err := obs.NewFileSink(*tracePath)
		if err != nil {
			return err
		}
		tracer = obs.New(sink)
	}

	tr := netchord.TCP{}
	var hosts []*netchord.Host
	var col *netchord.Collector
	if *join == "" {
		cluster, err := netchord.NewCluster(cfg, tr, nf, *nodes, *strat, *seed, tracer)
		if err != nil {
			return err
		}
		defer cluster.Close()
		hosts, col = cluster.Hosts(), cluster.Collector()
		fmt.Fprintf(out, "ring seed=%s collector=%s hosts=%d strategy=%s\n",
			cluster.SeedAddr(), col.Addr(), len(hosts), *strat)
	} else {
		if tracer != nil {
			// The trace comes from the collector, which lives in the
			// ring-creating process; a joining process has nothing to
			// write into it.
			_ = tracer.Close()
			return fmt.Errorf("-trace requires creating the ring (omit -join)")
		}
		for i := 0; i < *nodes; i++ {
			h, err := netchord.NewHost(cfg, tr, nf, *indexBase+i, *strat, *seed, *join, *collector)
			if err != nil {
				for _, prev := range hosts {
					prev.Close()
				}
				return fmt.Errorf("host %d: %w", *indexBase+i, err)
			}
			h.Start()
			hosts = append(hosts, h)
			fmt.Fprintf(out, "host %d joined via %s as %s\n", h.Index(), *join, h.PrimaryNode().Addr())
		}
		defer func() {
			for _, h := range hosts {
				h.Close()
			}
		}()
	}

	// Run until the timer or a signal, whichever first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if *duration > 0 {
		timer := time.NewTimer(*duration)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-sig:
		}
	} else {
		<-sig
	}

	s := summary{Hosts: len(hosts), Strategy: *strat}
	if col != nil {
		s.Progress = col.Stats()
	}
	for _, h := range hosts {
		st := h.Stats()
		s.Injections += st.Injections
		s.Churns += st.Churns
		s.Sybils += st.Sybils
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	fmt.Fprintf(out, "hosts=%d strategy=%s consumed=%d residual=%d busy-ticks=%d injections=%d churns=%d sybils=%d\n",
		s.Hosts, s.Strategy, s.Progress.Consumed, s.Progress.Residual,
		s.Progress.BusyTicks, s.Injections, s.Churns, s.Sybils)
	return nil
}
