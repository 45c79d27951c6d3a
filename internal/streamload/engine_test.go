package streamload

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"chordbalance/internal/ids"
)

// memFetcher serves chunks from the catalog with a fixed delay and an
// injected failure every failEvery-th call.
type memFetcher struct {
	cat       *Catalog
	delay     time.Duration
	failEvery uint64
	calls     atomic.Uint64
}

func (m *memFetcher) Fetch(obj, chunk int, key ids.ID) (int, error) {
	n := m.calls.Add(1)
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.failEvery > 0 && n%m.failEvery == 0 {
		return 0, errors.New("injected fetch failure")
	}
	return m.cat.ChunkSize(chunk), nil
}

func TestEngineDeliversTargetUnderRace(t *testing.T) {
	cat := &Catalog{Objects: 8, ObjectChunks: 16, ChunkBytes: 128, TailBytes: 50, Salt: 4}
	eng, err := NewEngine(Config{
		Catalog:       cat,
		Viewers:       8,
		Seed:          21,
		ZipfS:         0.8,
		ChunkDur:      500 * time.Microsecond,
		StartupChunks: 2,
		Window:        8,
		MaxInFlight:   4,
		MidJoinProb:   0.2,
		TargetChunks:  1500,
		SLO:           2 * time.Millisecond,
		RetryBackoff:  200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f := &memFetcher{cat: cat, delay: 100 * time.Microsecond, failEvery: 97}
	res := eng.Run(ctx, f)
	if res.Chunks < 1500 {
		t.Fatalf("delivered %d chunks, want >= 1500", res.Chunks)
	}
	if res.Sessions == 0 || res.FetchErrors == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	tot := eng.Totals()
	if tot.Chunks != res.Chunks || tot.Bytes != res.Bytes ||
		tot.DeadlineMiss != res.DeadlineMiss || tot.Rebuffers != res.Rebuffers {
		t.Fatalf("Totals %+v disagree with Result %+v", tot, res)
	}
	if res.Bytes == 0 || len(res.LatsUs) == 0 || res.FetchP50us <= 0 {
		t.Fatalf("latency accounting missing: %+v", res)
	}
}

func TestEngineCancelDrainsCleanly(t *testing.T) {
	cat := &Catalog{Objects: 2, ObjectChunks: 64, ChunkBytes: 64, Salt: 6}
	eng, err := NewEngine(Config{
		Catalog:      cat,
		Viewers:      4,
		Seed:         3,
		ChunkDur:     10 * time.Millisecond,
		MaxInFlight:  4,
		TargetChunks: 1 << 40, // far out of reach: only cancel ends the run
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res := eng.Run(ctx, &memFetcher{cat: cat, delay: 2 * time.Millisecond})
	// Run returned: every fetch goroutine was drained. The exact chunk
	// count depends on scheduling; it only has to be self-consistent.
	if res.Chunks != eng.Totals().Chunks {
		t.Fatalf("result chunks %d != totals %d", res.Chunks, eng.Totals().Chunks)
	}
}

// catalogKV serves a catalog's payloads by key, with one key's bytes
// damaged and one key unreachable.
type catalogKV struct {
	cat          *Catalog
	damaged, bad ids.ID
}

func (kv catalogKV) Get(key ids.ID) ([]byte, error) {
	if key == kv.bad {
		return nil, errors.New("owner unreachable")
	}
	for obj := 0; obj < kv.cat.Objects; obj++ {
		for c := 0; c < kv.cat.ObjectChunks; c++ {
			if kv.cat.ChunkKey(obj, c) != key {
				continue
			}
			v := kv.cat.ChunkPayload(obj, c)
			if key == kv.damaged {
				v[0] ^= 0xff
			}
			return v, nil
		}
	}
	return nil, errors.New("no such key")
}

func TestNetFetcherVerifiesPayloads(t *testing.T) {
	cat := &Catalog{Objects: 1, ObjectChunks: 4, ChunkBytes: 32, Salt: 8}
	kv := catalogKV{cat: cat, damaged: cat.ChunkKey(0, 1), bad: cat.ChunkKey(0, 2)}
	nf := NewNetFetcher(kv, cat, true)

	if n, err := nf.Fetch(0, 0, cat.ChunkKey(0, 0)); err != nil || n != 32 {
		t.Fatalf("good fetch = (%d, %v), want (32, nil)", n, err)
	}
	if nf.Corrupt() != 0 {
		t.Fatalf("verification flagged a good chunk")
	}
	if n, err := nf.Fetch(0, 1, cat.ChunkKey(0, 1)); err != nil || n != 32 {
		t.Fatalf("damaged fetch = (%d, %v), want (32, nil): damage is counted, not an error", n, err)
	}
	if nf.Corrupt() != 1 {
		t.Fatalf("corrupt = %d after one damaged chunk, want 1", nf.Corrupt())
	}
	if _, err := nf.Fetch(0, 2, cat.ChunkKey(0, 2)); err == nil {
		t.Fatal("fetch from an unreachable owner succeeded")
	}
	if nf.Corrupt() != 1 {
		t.Fatalf("a failed fetch changed the corrupt count to %d", nf.Corrupt())
	}
}
