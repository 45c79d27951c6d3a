// Command chordnet is an interactive shell over a live Chord ring — the
// netchord protocol that chordd ships, its nodes driven in lockstep with
// maintenance rounds run on command — for poking at the substrate the
// simulator abstracts: watch lookups route, crash nodes, and see
// replication keep data alive.
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
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"chordbalance/internal/adversary"
	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/netchord"
	"chordbalance/internal/xrand"
)

// shellConfig keeps four copies of every key: the owner's and three
// replicas on its successors.
var shellConfig = netchord.Config{Replicas: 4}

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

// session holds the shell's ring state. Every client command enters
// the ring at the first live node in ring order, and the lockstep
// driver runs every RPC from this one goroutine, so a script's output
// is a pure function of its input.
type session struct {
	ls  *netchord.Lockstep
	gen *keys.Generator
	out io.Writer

	// planned is set while a 'plan' command's fault plan is installed;
	// stored remembers every value put, for the chaos key audit.
	planned bool
	stored  map[ids.ID]string

	// Adversary state (docs/ADVERSARY.md): the installed eclipse
	// attacker, its RNG stream, and which live ring identities are its.
	att     *adversary.Attacker
	attRng  *xrand.Rand
	hostile map[ids.ID]bool
}

func run(in io.Reader, out io.Writer, interactive bool) error {
	s := &session{out: out, gen: keys.NewGenerator(uint64(0xc0ffee))}
	defer s.close()
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

// close shuts the session's ring down.
func (s *session) close() {
	if s.ls != nil {
		s.ls.Close()
	}
}

func (s *session) dispatch(cmd string, args []string) error {
	switch cmd {
	case "help":
		fmt.Fprint(s.out, `commands:
  create N           build a fresh N-node ring
  join               add one node at a SHA-1 identifier
  kill INDEX         crash the INDEX-th node (see: ring)
  leave INDEX        graceful departure of the INDEX-th node
  put KEY VALUE...   store VALUE under SHA1(KEY)
  get KEY            fetch the value for KEY
  lookup KEY         resolve the owner of KEY and count hops
  trace KEY          show the full route a lookup takes
  dist               primary-key count per node (Table I at protocol level)
  ring               list live nodes
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
  stats              RPC, replication and fault-layer counters
  quit               leave the shell
`)
		return nil
	case "create":
		n, err := atoiArg(args, 0, 8)
		if err != nil || n < 1 {
			return fmt.Errorf("usage: create N (N >= 1)")
		}
		s.close()
		ls, err := netchord.NewLockstep(shellConfig, faults.Plan{}, n, s.gen.Next)
		*s = session{ls: ls, gen: s.gen, out: s.out, stored: make(map[ids.ID]string)}
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "overlay up: %d nodes\n", len(s.ls.Nodes()))
		return nil
	}

	if s.ls == nil {
		return fmt.Errorf("no overlay yet: run 'create N' first")
	}
	if len(s.ls.Nodes()) == 0 {
		return fmt.Errorf("no live nodes: run 'create N'")
	}
	entry := s.ls.Nodes()[0]
	switch cmd {
	case "join":
		n, err := s.ls.Join(s.gen.Next())
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "joined %s\n", n.ID().Short())
		return nil
	case "kill", "leave":
		i, err := atoiArg(args, 0, -1)
		alive := s.ls.Nodes()
		if err != nil || i < 0 || i >= len(alive) {
			return fmt.Errorf("usage: %s INDEX (0..%d)", cmd, len(alive)-1)
		}
		id := alive[i].ID()
		if cmd == "kill" {
			if err := s.ls.Kill(id); err != nil {
				return err
			}
			fmt.Fprintf(s.out, "killed %s\n", id.Short())
			return nil
		}
		if err := s.ls.Leave(id); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "left %s\n", id.Short())
		return nil
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("usage: put KEY VALUE...")
		}
		key, value := keys.HashString(args[0]), strings.Join(args[1:], " ")
		if err := s.ls.Client().Put(key, []byte(value)); err != nil {
			return err
		}
		s.stored[key] = value
		fmt.Fprintln(s.out, "ok")
		return nil
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get KEY")
		}
		v, err := s.ls.Client().Get(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintln(s.out, string(v))
		return nil
	case "lookup":
		if len(args) != 1 {
			return fmt.Errorf("usage: lookup KEY")
		}
		owner, hops, err := entry.Lookup(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "owner %s via %d hops\n", owner.ID.Short(), hops)
		return nil
	case "trace":
		if len(args) != 1 {
			return fmt.Errorf("usage: trace KEY")
		}
		owner, path, err := entry.LookupTrace(keys.HashString(args[0]))
		if err != nil {
			return err
		}
		hops := make([]string, len(path))
		for i, r := range path {
			hops[i] = r.ID.Short()
		}
		fmt.Fprintf(s.out, "%s => %s\n", strings.Join(hops, " -> "), owner.ID.Short())
		return nil
	case "dist":
		for i, c := range s.primaryKeys() {
			fmt.Fprintf(s.out, "%3d  %s  %d keys\n", i, s.ls.Nodes()[i].ID().Short(), c)
		}
		return nil
	case "ring":
		for i, n := range s.ls.Nodes() {
			fmt.Fprintf(s.out, "%3d  %s\n", i, n.ID().Short())
		}
		return nil
	case "maint":
		n, err := atoiArg(args, 0, 1)
		if err != nil || n < 1 {
			return fmt.Errorf("usage: maint [N]")
		}
		for i := 0; i < n; i++ {
			s.ls.Round()
		}
		fmt.Fprintf(s.out, "ran %d rounds\n", n)
		return nil
	case "heal":
		nf := s.ls.Faults()
		active := nf.PartitionActive()
		nf.Heal() // also overrides any partition the plan schedules later
		if active {
			fmt.Fprintln(s.out, "partition lifted")
		}
		rounds, ok := s.healRing()
		if !ok {
			return fmt.Errorf("still inconsistent after %d rounds", rounds)
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
		if !s.planned {
			return fmt.Errorf("no fault plan installed: run 'plan crash=0.01' first")
		}
		s.chaos(ticks, maxRounds)
		return nil
	case "partition":
		if len(args) != 1 {
			return fmt.Errorf("usage: partition FRAC (0 < FRAC < 1)")
		}
		frac, err := strconv.ParseFloat(args[0], 64)
		if err != nil {
			return fmt.Errorf("usage: partition FRAC (0 < FRAC < 1)")
		}
		if err := s.ls.Faults().ForcePartition(frac); err != nil {
			return err
		}
		fmt.Fprintf(s.out, "partitioned at %g of the ID space\n", frac)
		return nil
	case "stats":
		primary, entries := 0, 0
		for i, c := range s.primaryKeys() {
			primary += c
			entries += s.ls.Nodes()[i].KeyCount()
		}
		replication := 0.0
		if primary > 0 {
			replication = float64(entries) / float64(primary)
		}
		rpc, fs := s.ls.RPC(), s.ls.Faults().Stats()
		fmt.Fprintf(s.out, "nodes=%d dead=%d messages=%d maintenance-rounds=%d\n",
			len(s.ls.Nodes()), s.ls.Dead(), rpc.Calls, s.ls.Rounds())
		fmt.Fprintf(s.out, "primary-keys=%d stored-entries=%d mean-replication=%.2f ring-ok=%v\n",
			primary, entries, replication, s.ls.Converged())
		fmt.Fprintf(s.out, "retries=%d timeouts=%d drops=%d partition-drops=%d partition-refusals=%d\n",
			rpc.Retries, rpc.Timeouts, fs.Drops, fs.PartitionDrops, fs.PartitionRefusals)
		return nil
	}
	return fmt.Errorf("unknown command %q (try: help)", cmd)
}

// chaos advances the ring through ticks of the installed plan. Each
// tick the plan's crash draws and bursts pick victims among the live
// nodes (at least one survives); a tick with victims is a wave, healed
// by maintenance until the ring converges or maxRounds pass, and a
// quiet tick runs one ordinary round. The run ends with an audit of
// every key put so far, read back through the first live node.
func (s *session) chaos(ticks, maxRounds int) {
	crashed, waves, unconverged, total, worst := 0, 0, 0, 0, 0
	for t := 0; t < ticks; t++ {
		victims := s.ls.ChaosTick()
		if len(victims) == 0 {
			s.ls.Round()
			continue
		}
		crashed += len(victims)
		waves++
		rounds, ok := s.ls.Converge(maxRounds)
		total += rounds
		worst = max(worst, rounds)
		if !ok {
			unconverged++
		}
	}
	recovered, lost, failed := 0, 0, 0
	c := s.ls.Client()
	for _, k := range sortedKeys(s.stored) {
		v, err := c.Get(k)
		switch {
		case err == nil && string(v) == s.stored[k]:
			recovered++
		case err == nil || errors.Is(err, netchord.ErrNotFound):
			lost++
		default:
			failed++
		}
	}
	mttr, success := 0.0, 1.0
	if waves > 0 {
		mttr = float64(total) / float64(waves)
	}
	if len(s.stored) > 0 {
		success = 1 - float64(failed)/float64(len(s.stored))
	}
	fmt.Fprintf(s.out, "ticks=%d crashed=%d waves=%d unconverged=%d\n", ticks, crashed, waves, unconverged)
	fmt.Fprintf(s.out, "mean-time-to-repair=%.2f max=%d rounds\n", mttr, worst)
	fmt.Fprintf(s.out, "keys: tracked=%d recovered=%d lost=%d probe-failures=%d (success %.1f%%)\n",
		len(s.stored), recovered, lost, failed, 100*success)
}

// primaryKeys returns how many stored keys each live node owns — keys
// in its arc (predecessor, self] — in ring order.
func (s *session) primaryKeys() []int {
	nodes := s.ls.Nodes()
	out := make([]int, len(nodes))
	for i, n := range nodes {
		pred := nodes[(i+len(nodes)-1)%len(nodes)].ID()
		for _, k := range n.Store().Keys() {
			if len(nodes) == 1 || ids.BetweenRightIncl(k, pred, n.ID()) {
				out[i]++
			}
		}
	}
	return out
}

// sortedKeys returns m's keys in ring order.
func sortedKeys(m map[ids.ID]string) []ids.ID {
	out := make([]ids.ID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, ids.ID.Compare)
	return out
}

// planCmd sets, clears, or shows the ring's fault plan.
func (s *session) planCmd(args []string) error {
	nf := s.ls.Faults()
	if len(args) == 0 {
		if !s.planned {
			fmt.Fprintln(s.out, "no fault plan installed")
			return nil
		}
		p := nf.Plan()
		fmt.Fprintf(s.out, "drop=%g crash=%g burst-every=%d burst-size=%d retries=%d seed=%d\n",
			p.DropRate, p.CrashRate, p.BurstEvery, p.BurstSize, p.MaxRetries, p.Seed)
		return nil
	}
	if len(args) == 1 && args[0] == "off" {
		if err := nf.SetPlan(faults.Plan{}); err != nil {
			return err
		}
		s.planned = false
		fmt.Fprintln(s.out, "fault plan cleared")
		return nil
	}
	var p faults.Plan
	if s.planned {
		p = nf.Plan()
	}
	if err := applySettings("plan", "drop, crash, burst-every, burst-size, retries, seed", args, map[string]any{
		"drop": &p.DropRate, "crash": &p.CrashRate, "burst-every": &p.BurstEvery,
		"burst-size": &p.BurstSize, "retries": &p.MaxRetries, "seed": &p.Seed,
	}); err != nil {
		return err
	}
	if err := nf.SetPlan(p); err != nil {
		return err
	}
	s.planned = true
	fmt.Fprintln(s.out, "fault plan installed")
	return nil
}

// attackCmd launches, shows, or withdraws an eclipse adversary on the
// ring (docs/ADVERSARY.md). The shell has no tick clock, so the
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
		for _, id := range s.ringIDs() {
			if s.hostile[id] {
				_ = s.ls.Kill(id) // taken from the live ring: present
			}
		}
		s.att, s.attRng, s.hostile = nil, nil, nil
		s.healRing()
		fmt.Fprintln(s.out, "attack withdrawn")
		return nil
	}
	cfg := adversary.AttackConfig{Budget: 8, TargetStart: 0.2, TargetWidth: 1.0 / 16}
	seed := uint64(1)
	if err := applySettings("attack", "budget, start, width, seed", args, map[string]any{
		"budget": &cfg.Budget, "start": &cfg.TargetStart, "width": &cfg.TargetWidth, "seed": &seed,
	}); err != nil {
		return err
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
	att.Accrue()
	for att.CanMint(1) {
		placed := false
		for try := 0; try < 16 && !placed; try++ {
			id := att.MintID(s.attRng)
			if _, err := s.ls.Join(id); err != nil {
				continue // occupied or unlucky ID: draw again
			}
			s.hostile[id] = true
			att.Minted(1)
			s.ls.Round()
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
	if err := applySettings("defend", "thr, window", args, map[string]any{
		"thr": &cfg.Threshold, "window": &cfg.Window,
	}); err != nil {
		return err
	}
	det, err := adversary.NewDetector(cfg)
	if err != nil {
		return err
	}
	ring := s.ringIDs()
	flagged := det.Flagged(len(ring), func(i int) ids.ID { return ring[i] })
	var hostileEv, honestEv int
	for _, i := range flagged {
		id := ring[i]
		if s.hostile[id] {
			_ = s.ls.Kill(id) // flagged from the live ring: present
			delete(s.hostile, id)
			if s.att != nil {
				s.att.Evicted()
			}
			hostileEv++
			continue
		}
		// Honest collateral: re-key rather than remove — the machine
		// behind the identity is innocent, only its placement dies.
		_ = s.ls.Leave(id) // a failed hand-off still takes the node down
		if _, err := s.ls.Join(s.gen.Next()); err == nil {
			s.ls.Round()
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
// ring stores replicas too, but owner capture is the readable headline
// at interactive scale).
func (s *session) eclipse() float64 {
	if s.att == nil {
		return 0
	}
	lo, hi := s.att.Target()
	ring := s.ringIDs()
	return adversary.EclipsedFraction(len(ring),
		func(i int) ids.ID { return ring[i] },
		func(i int) bool { return s.hostile[ring[i]] },
		lo, hi, 1)
}

// ringIDs returns the live node IDs in ring order.
func (s *session) ringIDs() []ids.ID {
	out := make([]ids.ID, len(s.ls.Nodes()))
	for i, n := range s.ls.Nodes() {
		out[i] = n.ID()
	}
	return out
}

// healRing runs maintenance until convergence, bounded by the ring's
// size, and reports the rounds used and whether it converged.
func (s *session) healRing() (int, bool) {
	return s.ls.Converge(4*len(s.ls.Nodes()) + 16)
}

// applySettings parses key=value args into the fields they name, each
// a *float64, *int or *uint64; what and known name the command and its
// keys in error messages.
func applySettings(what, known string, args []string, fields map[string]any) error {
	for _, kv := range args {
		k, v, found := strings.Cut(kv, "=")
		if !found {
			return fmt.Errorf("bad %s setting %q (want key=value)", what, kv)
		}
		var err error
		switch f := fields[k].(type) {
		case *float64:
			*f, err = strconv.ParseFloat(v, 64)
		case *int:
			*f, err = strconv.Atoi(v)
		case *uint64:
			*f, err = strconv.ParseUint(v, 10, 64)
		default:
			return fmt.Errorf("unknown %s key %q (%s)", what, k, known)
		}
		if err != nil {
			return fmt.Errorf("bad %s value %q", k, v)
		}
	}
	return nil
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
