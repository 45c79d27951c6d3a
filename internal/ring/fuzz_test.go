package ring

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"chordbalance/internal/ids"
)

// FuzzOperationSequences drives the ring through arbitrary operation
// sequences decoded from fuzz input and checks the structural invariants
// after every step. Each input byte pair is (op, operand).
func FuzzOperationSequences(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 2, 0, 3, 1})
	f.Add([]byte{0, 5, 3, 9, 1, 0, 1, 1, 1, 2, 2, 7})
	f.Fuzz(func(t *testing.T, program []byte) {
		r := New[int]()
		r.SetConsumeMode(ConsumeMode(len(program) % 3))
		expectedKeys := 0
		for i := 0; i+1 < len(program) && i < 400; i += 2 {
			op, arg := program[i]%4, program[i+1]
			switch op {
			case 0: // insert at a derived ID
				id := derivedID(arg, i)
				if _, err := r.Insert(id, i); err != nil && err != ErrOccupied {
					t.Fatalf("insert: %v", err)
				}
			case 1: // remove an existing node
				if r.Len() > 1 {
					n := r.At(int(arg) % r.Len())
					if err := r.Remove(n); err != nil {
						t.Fatalf("remove: %v", err)
					}
				}
			case 2: // seed a batch of keys
				if r.Len() > 0 {
					batch := make([]ids.ID, int(arg)%8)
					for j := range batch {
						batch[j] = derivedID(arg+byte(j), i+1000)
					}
					if err := r.Seed(batch); err != nil {
						t.Fatalf("seed: %v", err)
					}
					expectedKeys += len(batch)
				}
			case 3: // consume
				if r.Len() > 0 {
					n := r.At(int(arg) % r.Len())
					if _, ok := n.Consume(); ok {
						expectedKeys--
					}
				}
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
		}
		if r.TotalKeys() != expectedKeys {
			t.Fatalf("key accounting drifted: ring %d, expected %d",
				r.TotalKeys(), expectedKeys)
		}
	})
}

// derivedID spreads fuzz operands across the ring deterministically.
func derivedID(arg byte, salt int) ids.ID {
	var raw [20]byte
	binary.BigEndian.PutUint64(raw[:8], uint64(arg)*0x9e3779b97f4a7c15+uint64(salt))
	binary.BigEndian.PutUint64(raw[8:16], uint64(salt)*0xbf58476d1ce4e5b9+uint64(arg))
	return ids.FromBytes(raw[:])
}

// tiePool returns identifiers built to reach the code uniform SHA-1
// never does: for each sixteenth of the ring it takes the last prefix
// below the boundary and the first one at it (so neighbours in ring
// order sit in different segments at every geometry Build can choose up
// to 16 segments), and under each prefix six identifiers that differ
// only past the first 8 bytes — two of them only in the last 4.
func tiePool() []ids.ID {
	tails := [][2]uint64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {^uint64(0), 0xffffffff}}
	var pool []ids.ID
	for k := uint64(0); k < 16; k++ {
		for _, prefix := range []uint64{k<<60 - 1, k << 60} {
			for _, tail := range tails {
				var id ids.ID
				binary.BigEndian.PutUint64(id[0:8], prefix)
				binary.BigEndian.PutUint64(id[8:16], tail[0])
				binary.BigEndian.PutUint32(id[16:20], uint32(tail[1]))
				pool = append(pool, id)
			}
		}
	}
	return pool
}

// modelSearch is the naive reference: the first index in the sorted
// model whose ID is >= id, by linear scan over byte-wise comparisons.
func modelSearch(model []ids.ID, id ids.ID) int {
	for i, m := range model {
		if bytes.Compare(m[:], id[:]) >= 0 {
			return i
		}
	}
	return len(model)
}

// FuzzBuiltRingModel drives a Build-constructed, multi-segment ring
// whose population is dense in equal prefixes and segment-boundary
// neighbours through arbitrary Insert/Remove/Get/Owner/Seed/Consume
// sequences, and checks every answer against a sorted slice. One Seed
// in sixteen is at least radixMin keys, so the radix arena path runs too.
func FuzzBuiltRingModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 0, 2, 0, 3, 1, 4, 9, 5, 3})
	for seed := uint64(1); seed <= 4; seed++ { // long mixed programs for plain `go test`
		prog := make([]byte, 600)
		for i := range prog {
			seed = seed*6364136223846793005 + 1442695040888963407
			prog[i] = byte(seed >> 56)
		}
		f.Add(prog)
	}
	pool := tiePool()
	f.Fuzz(func(t *testing.T, program []byte) {
		// Half the pool plus spread-out filler is on the ring from the
		// start; the other half arrives through Insert.
		var model []ids.ID
		for i := 0; i < len(pool); i += 2 {
			model = append(model, pool[i])
		}
		for i := 0; i < 120; i++ {
			model = append(model, derivedID(byte(i), 7*i+1))
		}
		r := New[int]()
		if _, err := r.Build(model, make([]int, len(model))); err != nil {
			t.Fatal(err)
		}
		if r.Segments() < 2 {
			t.Fatalf("built ring has %d segments, want several", r.Segments())
		}
		sort.Slice(model, func(i, j int) bool { return bytes.Compare(model[i][:], model[j][:]) < 0 })
		pick := func(a, b byte) ids.ID { return pool[(int(a)<<8|int(b))%len(pool)] }
		for i := 0; i+2 < len(program) && i < 900; i += 3 {
			op, id := program[i]%6, pick(program[i+1], program[i+2])
			at := modelSearch(model, id)
			present := at < len(model) && model[at] == id
			switch op {
			case 0:
				_, err := r.Insert(id, i)
				if present != (err == ErrOccupied) || (err != nil && err != ErrOccupied) {
					t.Fatalf("Insert(%v) = %v with present=%v", id, err, present)
				}
				if !present {
					model = append(model[:at], append([]ids.ID{id}, model[at:]...)...)
				}
			case 1:
				n, ok := r.Get(id)
				if ok != present || (ok && n.ID() != id) {
					t.Fatalf("Get(%v) = %v, model says %v", id, ok, present)
				}
				if present {
					if err := r.Remove(n); err != nil {
						t.Fatalf("Remove(%v): %v", id, err)
					}
					model = append(model[:at], model[at+1:]...)
				}
			case 2:
				if n, ok := r.Get(id); ok != present || (ok && n.ID() != id) {
					t.Fatalf("Get(%v) = %v, model says %v", id, ok, present)
				}
			case 3:
				if got, want := r.Owner(id).ID(), model[at%len(model)]; got != want {
					t.Fatalf("Owner(%v) = %v, model says %v", id, got, want)
				}
			case 4:
				batch := []ids.ID{id, id.Succ(), pick(program[i+2], program[i+1])}
				if program[i+1]%16 == 0 {
					// A radix-sized batch: the fuzz-derived IDs repeated
					// with pool neighbours, so equal prefixes and
					// segment-boundary IDs stay in it.
					for j := 0; len(batch) < radixMin; j++ {
						batch = append(batch, batch[j%3], pick(byte(j), program[i+2]))
					}
				}
				if err := r.Seed(batch); err != nil {
					t.Fatal(err)
				}
			case 5:
				r.Owner(id).Consume()
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %v", i/3, op, err)
			}
		}
		if r.Len() != len(model) {
			t.Fatalf("ring holds %d nodes, model %d", r.Len(), len(model))
		}
		for i, want := range model {
			if got := r.At(i).ID(); got != want {
				t.Fatalf("At(%d) = %v, model says %v", i, got, want)
			}
		}
	})
}
