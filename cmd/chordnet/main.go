// Command chordnet is an interactive shell over a live Chord overlay —
// the internal/chord protocol, with maintenance rounds run on command —
// for poking at the substrate the simulator abstracts: watch lookups
// route, crash nodes, and see replication keep data alive.
//
//	$ go run ./cmd/chordnet
//	chord> create 16
//	chord> put alice hello
//	chord> kill 3
//	chord> maint 40
//	chord> get alice
//	hello
//
// Commands also stream from stdin, so it is scriptable:
//
//	printf 'create 8\nput k v\nget k\n' | go run ./cmd/chordnet
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"chordbalance/internal/adversary"
	"chordbalance/internal/chord"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

func main() {
	if err := run(os.Stdin, os.Stdout, isTerminalLike()); err != nil {
		fmt.Fprintln(os.Stderr, "chordnet:", err)
		os.Exit(1)
	}
}

func isTerminalLike() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// session holds the shell's overlay state. Every client command enters
// the ring at the first live node in ring order, so a script's output is
// a pure function of its input.
type session struct {
	nw     *chord.Network
	rounds int // maintenance rounds run so far
	gen    *keys.Generator
	out    io.Writer

	// Adversary state (docs/ADVERSARY.md): the installed eclipse
	// attacker, its RNG stream, and which live ring identities are its.
	att     *adversary.Attacker
	attRng  *xrand.Rand
	hostile map[ids.ID]bool
}

func run(in io.Reader, out io.Writer, interactive bool) error {
	s := &session{out: out, gen: keys.NewGenerator(uint64(0xc0ffee))}
	sc := bufio.NewScanner(in)
	for {
		if interactive {
			fmt.Fprint(out, "chord> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd, args := fields[0], fields[1:]
		if cmd == "quit" || cmd == "exit" {
			return nil
		}
		if err := s.dispatch(cmd, args); err != nil {
			fmt.Fprintf(out, "error: %v\n", err)
		}
	}
}

func (s *session) dispatch(cmd string, args []string) error {
	switch cmd {
	case "help":
		fmt.Fprint(s.out, `commands:
  create N           build a fresh N-node overlay
  join               add one node at a SHA-1 identifier
  kill INDEX         crash the INDEX-th node (see: ring)
  leave INDEX        graceful departure of the INDEX-th node
  put KEY VALUE...   store VALUE under SHA1(KEY)
  get KEY            fetch the value for KEY
  lookup KEY         resolve the owner of KEY and count hops
  trace KEY          show the full route a lookup takes
  dist               primary-key count per node (Table I at protocol level)
  ring               list live nodes with stored-key counts
  maint [N]          run N maintenance rounds (default 1)
  heal               lift any partition, then run maintenance until the ring converges
  plan [k=v ...]     set the fault plan (drop, crash, burst-every, burst-size,
                     retries, seed); 'plan off' clears it, bare 'plan' shows it
  chaos [T [R]]      run T chaos ticks of the installed plan (default 20),
                     stabilizing each crash wave within R rounds (default 200)
  partition FRAC     force a two-sided partition at FRAC of the ID space
  attack [k=v ...]   launch an eclipse adversary (budget, start, width, seed);
                     'attack off' withdraws it, bare 'attack' shows eclipse status
  defend [k=v ...]   run one density-detection pass (thr, window), evicting
                     flagged identities: hostile ones die, honest ones re-key
  stats              message and fault-transport counters
  quit               leave the shell
`)
		return nil
	case "create":
		n, err := atoiArg(args, 0, 8)
		if err != nil || n < 1 {
			return fmt.Errorf("usage: create N (N >= 1)")
		}
		s.nw, s.rounds = chord.NewNetwork(chord.Config{}), 0
		first, err := s.nw.Create(s.gen.Next())
		if err != nil {
			return err
		}
		for i := 1; i < n; i++ {
			if _, err := s.nw.Join(s.gen.Next(), first); err != nil {
				return err
			}
			s.maintain()
		}
		s.healRing()
		fmt.Fprintf(s.out, "overlay up: %d nodes\n", len(s.nw.AliveIDs()))
		return nil
	}

	if s.nw == nil {
		return fmt.Errorf("no overlay yet: run 'create N' first")
	}
	switch cmd {
	case "join":
		id := s.gen.Next()
		boot, err := s.entry()
		if err != nil {
			return err
		}
		if _, err := s.nw.Join(id, boot); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "joined %s\n", id.Short())
		return nil
	case "kill", "leave":
		i, err := atoiArg(args, 0, -1)
		alive := s.nw.AliveIDs()
		if err != nil || i < 0 || i >= len(alive) {
			return fmt.Errorf("usage: %s INDEX (0..%d)", cmd, len(alive)-1)
		}
		if cmd == "kill" {
			s.nw.Kill(alive[i])
			fmt.Fprintf(s.out, "killed %s\n", alive[i].Short())
			return nil
		}
		if err := s.nw.Leave(alive[i]); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "left %s\n", alive[i].Short())
		return nil
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("usage: put KEY VALUE...")
		}
		entry, err := s.entry()
		if err != nil {
			return err
		}
		if err := entry.Put(keys.HashString(args[0]), strings.Join(args[1:], " ")); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "ok")
		return nil
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get KEY")
		}
		entry, err := s.entry()
		if err != nil {
			return err
		}
		v, err := entry.Get(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, v)
		return nil
	case "lookup":
		if len(args) != 1 {
			return fmt.Errorf("usage: lookup KEY")
		}
		entry, err := s.entry()
		if err != nil {
			return err
		}
		owner, hops, err := entry.Lookup(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "owner %s via %d hops\n", owner.ID().Short(), hops)
		return nil
	case "trace":
		if len(args) != 1 {
			return fmt.Errorf("usage: trace KEY")
		}
		entry, err := s.entry()
		if err != nil {
			return err
		}
		tr, err := entry.LookupTraced(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, tr)
		return nil
	case "dist":
		alive := s.nw.AliveIDs()
		for i, c := range s.nw.KeyDistribution() {
			fmt.Fprintf(s.out, "%3d  %s  %d keys\n", i, alive[i].Short(), c)
		}
		return nil
	case "ring":
		for i, id := range s.nw.AliveIDs() {
			fmt.Fprintf(s.out, "%3d  %s\n", i, id.Short())
		}
		return nil
	case "maint":
		n, err := atoiArg(args, 0, 1)
		if err != nil || n < 1 {
			return fmt.Errorf("usage: maint [N]")
		}
		for i := 0; i < n; i++ {
			s.maintain()
		}
		fmt.Fprintf(s.out, "ran %d rounds\n", n)
		return nil
	case "heal":
		if inj := s.nw.FaultInjector(); inj != nil {
			active := inj.PartitionActive()
			inj.Heal() // also overrides any partition the plan schedules later
			if active {
				fmt.Fprintln(s.out, "partition lifted")
			}
		}
		rounds := s.healRing()
		if err := s.nw.VerifyRing(); err != nil {
			return fmt.Errorf("still inconsistent after %d rounds: %w", rounds, err)
		}
		fmt.Fprintf(s.out, "converged after %d rounds\n", rounds)
		return nil
	case "plan":
		return s.planCmd(args)
	case "attack":
		return s.attackCmd(args)
	case "defend":
		return s.defendCmd(args)
	case "chaos":
		ticks, err := atoiArg(args, 0, 20)
		if err != nil || ticks < 1 {
			return fmt.Errorf("usage: chaos [TICKS [MAXROUNDS]]")
		}
		maxRounds, err := atoiArg(args, 1, 200)
		if err != nil || maxRounds < 1 {
			return fmt.Errorf("usage: chaos [TICKS [MAXROUNDS]]")
		}
		if s.nw.FaultInjector() == nil {
			return fmt.Errorf("no fault plan installed: run 'plan crash=0.01' first")
		}
		rep := s.nw.RunChaos(ticks, maxRounds)
		fmt.Fprintf(s.out, "ticks=%d crashed=%d waves=%d unconverged=%d\n",
			rep.Ticks, rep.Crashed, rep.Waves, rep.Unconverged)
		fmt.Fprintf(s.out, "mean-time-to-repair=%.2f max=%d rounds\n",
			rep.MeanTimeToRepair(), rep.MaxRepairRounds)
		fmt.Fprintf(s.out, "keys: tracked=%d recovered=%d lost=%d probe-failures=%d (success %.1f%%)\n",
			rep.KeysTracked, rep.KeysRecovered, rep.KeysLost, rep.ProbeFailures,
			100*rep.LookupSuccessRate())
		return nil
	case "partition":
		if len(args) != 1 {
			return fmt.Errorf("usage: partition FRAC (0 < FRAC < 1)")
		}
		frac, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return fmt.Errorf("usage: partition FRAC (0 < FRAC < 1)")
		}
		if s.nw.FaultInjector() == nil {
			if err := s.setPlan(faults.Plan{}); err != nil {
				return err
			}
		}
		if err := s.nw.FaultInjector().ForcePartition(frac); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "partitioned at %g of the ID space\n", frac)
		return nil
	case "stats":
		st := s.nw.Stats()
		fmt.Fprintf(s.out, "nodes=%d dead=%d messages=%d maintenance-rounds=%d\n",
			st.AliveNodes, st.DeadNodes, st.Messages, s.rounds)
		fmt.Fprintf(s.out, "primary-keys=%d stored-entries=%d mean-replication=%.2f ring-ok=%v\n",
			st.PrimaryKeys, st.TotalKeys, st.MeanReplication, st.RingConsistent)
		if s.nw.FaultInjector() != nil {
			ts := s.nw.TransportStats()
			fmt.Fprintf(s.out, "sends=%d drops=%d retries=%d timeouts=%d backoff-ticks=%d partition-refusals=%d\n",
				ts.Sends, ts.Drops, ts.Retries, ts.Timeouts, ts.BackoffTicks, ts.PartitionRefusals)
			fmt.Fprintf(s.out, "lookups=%d failures=%d (success %.1f%%)\n",
				ts.Lookups, ts.LookupFailures, 100*ts.LookupSuccessRate())
		}
		return nil
	}
	return fmt.Errorf("unknown command %q (try: help)", cmd)
}

// planCmd sets, clears, or shows the overlay's fault plan.
func (s *session) planCmd(args []string) error {
	inj := s.nw.FaultInjector()
	if len(args) == 0 {
		if inj == nil {
			fmt.Fprintln(s.out, "no fault plan installed")
			return nil
		}
		p := inj.Plan()
		fmt.Fprintf(s.out, "drop=%g crash=%g burst-every=%d burst-size=%d retries=%d seed=%d\n",
			p.DropRate, p.CrashRate, p.BurstEvery, p.BurstSize, p.MaxRetries, p.Seed)
		return nil
	}
	if len(args) == 1 && args[0] == "off" {
		if err := s.setPlan(faults.Plan{}); err != nil {
			return err
		}
		fmt.Fprintln(s.out, "fault plan cleared")
		return nil
	}
	var p faults.Plan
	if inj != nil {
		p = inj.Plan()
	}
	for _, kv := range args {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("bad plan setting %q (want key=value)", kv)
		}
		switch k {
		case "drop", "crash":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s value %q", k, v)
			}
			if k == "drop" {
				p.DropRate = f
			} else {
				p.CrashRate = f
			}
		case "burst-every", "burst-size", "retries":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad %s value %q", k, v)
			}
			switch k {
			case "burst-every":
				p.BurstEvery = n
			case "burst-size":
				p.BurstSize = n
			default:
				p.MaxRetries = n
			}
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed value %q", v)
			}
			p.Seed = n
		default:
			return fmt.Errorf("unknown plan key %q (drop, crash, burst-every, burst-size, retries, seed)", k)
		}
	}
	if err := s.setPlan(p); err != nil {
		return err
	}
	fmt.Fprintln(s.out, "fault plan installed")
	return nil
}

// attackCmd launches, shows, or withdraws an eclipse adversary on the
// overlay (docs/ADVERSARY.md). The shell has no tick clock, so the
// attacker mints its whole budget at once — each hostile identity is a
// normal protocol join at a clustered ID — and the eclipse report reads
// owner capture (replicas=1): the fraction of the target arc whose
// primary owner is hostile.
func (s *session) attackCmd(args []string) error {
	if len(args) == 0 {
		if s.att == nil {
			fmt.Fprintln(s.out, "no attack installed")
			return nil
		}
		fmt.Fprintf(s.out, "live=%d minted=%d evicted=%d eclipse=%.3f\n",
			s.att.Live(), s.att.MintCount(), s.att.EvictCount(), s.eclipse())
		return nil
	}
	if len(args) == 1 && args[0] == "off" {
		for id := range s.hostile {
			s.nw.Kill(id)
		}
		s.att, s.attRng, s.hostile = nil, nil, nil
		s.healRing()
		fmt.Fprintln(s.out, "attack withdrawn")
		return nil
	}
	cfg := adversary.AttackConfig{Budget: 8, TargetStart: 0.2, TargetWidth: 1.0 / 16}
	seed := uint64(1)
	for _, kv := range args {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("bad attack setting %q (want key=value)", kv)
		}
		switch k {
		case "budget":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad budget value %q", v)
			}
			cfg.Budget = n
		case "start", "width":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad %s value %q", k, v)
			}
			if k == "start" {
				cfg.TargetStart = f
			} else {
				cfg.TargetWidth = f
			}
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed value %q", v)
			}
			seed = n
		default:
			return fmt.Errorf("unknown attack key %q (budget, start, width, seed)", k)
		}
	}
	if s.att != nil {
		return fmt.Errorf("attack already installed: 'attack off' first")
	}
	// Mint the whole budget in one burst: no clock means nothing paces
	// the adversary, so give it exactly the work its budget needs.
	cfg.WorkRate = cfg.Budget
	att, err := adversary.NewAttacker(cfg)
	if err != nil {
		return err
	}
	s.att, s.attRng, s.hostile = att, xrand.New(seed), make(map[ids.ID]bool)
	boot, err := s.entry()
	if err != nil {
		return err
	}
	att.Accrue()
	for att.CanMint(1) {
		placed := false
		for try := 0; try < 16 && !placed; try++ {
			id := att.MintID(s.attRng)
			if _, err := s.nw.Join(id, boot); err != nil {
				continue // occupied or unlucky ID: draw again
			}
			s.hostile[id] = true
			att.Minted(1)
			s.maintain()
			placed = true
		}
		if !placed {
			break // arc too crowded to place the rest of the budget
		}
	}
	s.healRing()
	fmt.Fprintf(s.out, "attack up: %d hostile identities, eclipse=%.3f\n",
		att.Live(), s.eclipse())
	return nil
}

// defendCmd runs one density-detection pass over the live ring order
// and evicts every flagged identity: hostile ones are killed outright
// (the defense's success), honest ones are forced to re-key — leave and
// rejoin under a fresh identifier — and counted as false evictions (the
// defense's collateral; honest Sybil balancers are dense by design).
func (s *session) defendCmd(args []string) error {
	cfg := adversary.DefenseConfig{Threshold: 4}
	for _, kv := range args {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("bad defend setting %q (want key=value)", kv)
		}
		switch k {
		case "thr":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return fmt.Errorf("bad thr value %q", v)
			}
			cfg.Threshold = f
		case "window":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("bad window value %q", v)
			}
			cfg.Window = n
		default:
			return fmt.Errorf("unknown defend key %q (thr, window)", k)
		}
	}
	det, err := adversary.NewDetector(cfg)
	if err != nil {
		return err
	}
	ring := s.nw.AliveIDs()
	flagged := det.Flagged(len(ring), func(i int) ids.ID { return ring[i] })
	var hostileEv, honestEv int
	for _, i := range flagged {
		id := ring[i]
		if s.hostile[id] {
			s.nw.Kill(id)
			delete(s.hostile, id)
			if s.att != nil {
				s.att.Evicted()
			}
			hostileEv++
			continue
		}
		// Honest collateral: re-key rather than remove — the machine
		// behind the identity is innocent, only its placement dies.
		if err := s.nw.Leave(id); err != nil {
			s.nw.Kill(id)
		}
		if boot, err := s.entry(); err == nil {
			if _, err := s.nw.Join(s.gen.Next(), boot); err == nil {
				s.maintain()
			}
		}
		honestEv++
	}
	s.healRing()
	rate := 0.0
	if hostileEv+honestEv > 0 {
		rate = float64(honestEv) / float64(hostileEv+honestEv)
	}
	fmt.Fprintf(s.out, "flagged=%d evicted-hostile=%d rekeyed-honest=%d false-eviction-rate=%.3f eclipse=%.3f\n",
		len(flagged), hostileEv, honestEv, rate, s.eclipse())
	return nil
}

// eclipse measures owner capture of the attack's target arc: the
// fraction whose primary owner is hostile (replicas=1 — the shell's
// overlay stores replicas too, but owner capture is the readable
// headline at interactive scale).
func (s *session) eclipse() float64 {
	if s.att == nil {
		return 0
	}
	lo, hi := s.att.Target()
	ring := s.nw.AliveIDs()
	return adversary.EclipsedFraction(len(ring),
		func(i int) ids.ID { return ring[i] },
		func(i int) bool { return s.hostile[ring[i]] },
		lo, hi, 1)
}

// entry returns the node every client command enters the ring at: the
// first live node in ring order.
func (s *session) entry() (*chord.Node, error) {
	alive := s.nw.AliveIDs()
	if len(alive) == 0 {
		return nil, fmt.Errorf("no live nodes")
	}
	return s.nw.Node(alive[0]), nil
}

// maintain runs one maintenance round on every live node.
func (s *session) maintain() {
	s.nw.StabilizeAll()
	s.rounds++
}

// setPlan installs a fresh injector for p; a zero plan leaves the
// transport inert.
func (s *session) setPlan(p faults.Plan) error {
	inj, err := faults.New(p)
	if err != nil {
		return err
	}
	s.nw.SetFaultInjector(inj)
	return nil
}

// healRing runs maintenance until convergence (bounded) and returns the
// rounds used.
func (s *session) healRing() int {
	for i := 1; i <= 4*len(s.nw.AliveIDs())+16; i++ {
		s.maintain()
		if s.nw.VerifyRing() == nil {
			return i
		}
	}
	return 4*len(s.nw.AliveIDs()) + 16
}

func atoiArg(args []string, i, def int) (int, error) {
	if len(args) <= i {
		if def >= 0 {
			return def, nil
		}
		return 0, fmt.Errorf("missing argument")
	}
	return strconv.Atoi(args[i])
}
