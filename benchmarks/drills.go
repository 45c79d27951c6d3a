package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/ring"
	"chordbalance/internal/store"
	"chordbalance/internal/wire"
	"chordbalance/internal/xrand"
)

// Drills time direct calls into one layer at the workload's own sizes.
// Each is a span under a "drill" root, bracketed by calibration marks
// like any other slice, and reported per unit of work on the reference
// host. They run only in the traced run.

// driller times drill bodies.
type driller struct {
	cal  *calibrator
	tr   *tracer
	root int
}

func newDriller(cal *calibrator, tr *tracer) *driller {
	return &driller{cal: cal, tr: tr, root: tr.begin("drill", -1, -1)}
}

// done closes the drill root span.
func (d *driller) done() { d.tr.end(d.root) }

// time runs body once and returns its reference-host duration in
// nanoseconds divided by units.
func (d *driller) time(name string, units int, body func()) float64 {
	from := d.cal.mark()
	id := d.tr.begin(name, d.root, -1)
	body()
	d.tr.end(id)
	to := d.cal.mark()
	_, norm := d.cal.between(from, to)
	return float64(norm) / float64(units)
}

// drillSink keeps the drills' results alive.
var drillSink int

// simDrills times the keys, ring and ids layers at the workload's own
// network and job size.
func simDrills(nodes, tasks int, seed uint64, cal *calibrator, tr *tracer, pl map[string]float64) error {
	d := newDriller(cal, tr)
	defer d.done()

	gen := keys.NewGenerator(xrand.SplitSeed(seed, 0xd1))
	nodeIDs := gen.NodeIDs(nodes)
	var taskKeys []ids.ID
	pl["keys.taskkeys_ns_per_key"] = d.time("keys.TaskKeys", tasks, func() { taskKeys = gen.TaskKeys(tasks) })

	r := ring.New[struct{}]()
	var err error
	pl["ring.build_ns_per_node"] = d.time("ring.Build", nodes, func() {
		_, err = r.Build(nodeIDs, make([]struct{}, nodes))
	})
	if err != nil {
		return fmt.Errorf("drill ring.Build: %w", err)
	}
	pl["ring.seed_ns_per_key"] = d.time("ring.Seed", tasks, func() { err = r.Seed(taskKeys) })
	if err != nil {
		return fmt.Errorf("drill ring.Seed: %w", err)
	}

	const probes = 200000
	pl["ring.owner_ns"] = d.time("ring.Owner", probes, func() {
		for i := 0; i < probes; i++ {
			if r.Owner(taskKeys[i%len(taskKeys)]) != nil {
				drillSink++
			}
		}
	})
	pl["ids.less_ns"] = d.time("ids.Less", probes, func() {
		for i := 0; i < probes; i++ {
			if taskKeys[i%len(taskKeys)].Less(taskKeys[(i+7)%len(taskKeys)]) {
				drillSink++
			}
		}
	})

	const joins = 2000
	fresh := gen.NodeIDs(joins)
	added := make([]*ring.Node[struct{}], 0, joins)
	pl["ring.insert_ns"] = d.time("ring.Insert", joins, func() {
		for _, id := range fresh {
			n, ierr := r.Insert(id, struct{}{})
			if ierr != nil {
				err = ierr
				return
			}
			added = append(added, n)
		}
	})
	if err != nil {
		return fmt.Errorf("drill ring.Insert: %w", err)
	}
	pl["ring.remove_ns"] = d.time("ring.Remove", joins, func() {
		for _, n := range added {
			if rerr := r.Remove(n); rerr != nil {
				err = rerr
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("drill ring.Remove: %w", err)
	}
	return nil
}

// netDrills times the store and wire layers: a standalone store in the
// ring's data directory with the ring's options and the pool's record
// size, and the codec on the two messages the workloads move most (a
// TPut carrying a 64-byte value, a TFindSuccessorOK carrying a
// successor list of 8).
func netDrills(dataDir string, pool []ids.ID, cal *calibrator, tr *tracer, pl map[string]float64) error {
	d := newDriller(cal, tr)
	defer d.done()

	dir := filepath.Join(dataDir, "drill-store")
	st, err := store.Open(dir, store.Options{SyncWrites: false})
	if err != nil {
		return fmt.Errorf("drill store: %w", err)
	}
	defer func() {
		_ = st.Close()        // a drill store: nothing to report
		_ = os.RemoveAll(dir) // as above
	}()
	value := make([]byte, valueLen)
	pl["store.put_us"] = d.time("store.Put", len(pool), func() {
		for _, k := range pool {
			if _, perr := st.Put(k, value); perr != nil {
				err = perr
				return
			}
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("drill store.Put: %w", err)
	}
	pl["store.get_us"] = d.time("store.Get", len(pool), func() {
		for _, k := range pool {
			if _, _, ok, gerr := st.Get(k); gerr != nil || !ok {
				err = fmt.Errorf("key %s: present=%t err=%v", k.Short(), ok, gerr)
				return
			}
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("drill store.Get: %w", err)
	}
	const digests = 20
	pl["store.digest_us_per_key"] = d.time("store.Digest", digests*len(pool), func() {
		for i := 0; i < digests; i++ {
			_, n := st.Digest(ids.Zero, ids.Zero) // the whole ring
			drillSink += n
		}
	}) / 1e3

	refs := make([]wire.NodeRef, 8)
	for i := range refs {
		refs[i] = wire.NodeRef{ID: pool[i], Addr: "127.0.0.1:40000"}
	}
	msgs := []struct {
		label string
		msg   *wire.Msg
	}{
		{"put64", &wire.Msg{Type: wire.TPut, Req: 7, Key: pool[0], Value: value}},
		{"found8", &wire.Msg{Type: wire.TFindSuccessorOK, Req: 7, Node: refs[0], List: refs}},
	}
	const reps = 50000
	buf := make([]byte, 0, 1024)
	var decodeAllocs uint64
	for _, m := range msgs {
		pl["wire.append_ns."+m.label] = d.time("wire.Append", reps, func() {
			for i := 0; i < reps; i++ {
				if buf, err = wire.Append(buf[:0], m.msg); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("drill wire.Append %s: %w", m.label, err)
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		pl["wire.decode_ns."+m.label] = d.time("wire.Decode", reps, func() {
			for i := 0; i < reps; i++ {
				if _, _, err = wire.Decode(buf); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("drill wire.Decode %s: %w", m.label, err)
		}
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		decodeAllocs += after.Mallocs - before.Mallocs
	}
	pl["wire.allocs_per_decode"] = float64(decodeAllocs) / float64(len(msgs)*reps)
	return nil
}

// idleFor sleeps for d and returns the process's CPU use over it in
// cores: what the preloaded ring burns with no client attached.
func idleFor(d time.Duration) float64 {
	cpu0, t0 := cpuTime(), time.Now()
	time.Sleep(d)
	return float64(cpuTime()-cpu0) / float64(time.Since(t0))
}
