package netchord

import (
	"testing"

	"chordbalance/internal/faults"
	"chordbalance/internal/ids"
	"chordbalance/internal/streamload"
)

// hotCatalog is the stream soak's catalog: 1 152 chunks of 512 bytes,
// every key in one eighth of the ring.
func hotCatalog() *streamload.Catalog {
	return &streamload.Catalog{
		Objects:      24,
		ObjectChunks: 48,
		ChunkBytes:   512,
		Salt:         909,
		HotBits:      3,
		ArcLow:       ids.MustHex("2000000000000000000000000000000000000000"),
	}
}

// roundRobinPutter writes through the hosts' primaries in turn and runs
// one lockstep round every len(hosts) puts.
type roundRobinPutter struct {
	l     *Lockstep
	hosts []*Host
	puts  int
}

func (p *roundRobinPutter) Put(key ids.ID, value []byte) error {
	err := nodeClient(p.hosts[p.puts%len(p.hosts)].PrimaryNode()).Put(key, value)
	if p.puts++; p.puts%len(p.hosts) == 0 {
		p.l.Round()
	}
	return err
}

// stackedJoinLoss runs the stream soak's configuration on 12 lockstep
// invitation hosts under plan: it ingests the hot catalog round-robin
// through the primaries, which loads one arc until its owner invites
// Sybils into it one after another, then reads every chunk back in
// three sweeps, round-robin too, with a round every 12 reads. It
// returns how many acked chunks failed to read back byte-exact in some
// sweep. With converge set, the ring converges after every AddHost.
func stackedJoinLoss(t testing.TB, seed uint64, plan faults.Plan, converge bool) int {
	t.Helper()
	cfg := Config{Replicas: 2, InviteThreshold: 8, ReadWorkUnits: 1}
	l, err := NewLockstep(cfg, plan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hosts := make([]*Host, 12)
	for i := range hosts {
		h, err := l.AddHost("invitation", seed)
		if err != nil {
			t.Fatalf("seed %d: host %d: %v", seed, i, err)
		}
		hosts[i] = h
		if converge {
			l.Converge(64)
		}
	}
	if _, ok := l.Converge(64 * len(hosts)); !ok {
		t.Fatalf("seed %d: %d-host ring did not converge", seed, len(hosts))
	}
	cat := hotCatalog()
	if err := streamload.Ingest(&roundRobinPutter{l: l, hosts: hosts}, cat, 1); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	lost := make(map[int]bool)
	for range 3 {
		for idx := range cat.TotalChunks() {
			obj, chunk := idx/cat.ObjectChunks, idx%cat.ObjectChunks
			v, err := nodeClient(hosts[idx%len(hosts)].PrimaryNode()).Get(cat.ChunkKey(obj, chunk))
			if err != nil || !cat.VerifyChunk(obj, chunk, v) {
				lost[idx] = true
			}
			if idx%len(hosts) == len(hosts)-1 {
				l.Round()
			}
		}
	}
	return len(lost)
}

// TestStackedSybilJoinsKeepAckedChunks replays the stream soak's hot
// arc on lockstep hosts, with no faults: the invitation strategy stacks
// Sybils into the arc while it holds many frames of records, and every
// acked chunk must still read back byte-exact afterwards. A join that
// handed over only one frame of the arc stranded the rest on nodes that
// later joins pushed out of the owner's replica set: seed 6 lost 24
// chunks that way, and seed 7 lost 163 when the ring converged after
// every AddHost.
func TestStackedSybilJoinsKeepAckedChunks(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		converge bool
	}{{6, false}, {7, true}} {
		if lost := stackedJoinLoss(t, tc.seed, faults.Plan{Seed: tc.seed}, tc.converge); lost != 0 {
			t.Errorf("seed %d (converge after each host: %v): %d acked chunks unreadable", tc.seed, tc.converge, lost)
		}
	}
}
