package streamload

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// virtCfg is a workload with every stochastic feature on: Zipf skew,
// mid-object joins, latency jitter, loss-driven retries.
func virtCfg(seed uint64) VirtualConfig {
	return VirtualConfig{
		Config: Config{
			Catalog:       &Catalog{Objects: 16, ObjectChunks: 24, ChunkBytes: 512, TailBytes: 100, Salt: 5},
			Viewers:       8,
			Seed:          seed,
			ZipfS:         0.9,
			ChunkDur:      2 * time.Millisecond,
			StartupChunks: 2,
			Window:        8,
			MaxInFlight:   4,
			MidJoinProb:   0.25,
			TargetChunks:  2000,
			SLO:           4 * time.Millisecond,
		},
		BaseLatency:   time.Millisecond,
		JitterLatency: 2 * time.Millisecond,
		LossProb:      0.02,
	}
}

func TestVirtualSameSeedBitIdentical(t *testing.T) {
	a, err := RunVirtual(virtCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVirtual(virtCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed virtual runs diverged:\n%+v\n%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same-seed JSON differs:\n%s\n%s", ja, jb)
	}
	c, err := RunVirtual(virtCfg(43))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical runs; the seed is not flowing")
	}
	if a.Chunks < 2000 {
		t.Fatalf("delivered %d chunks, want >= target 2000", a.Chunks)
	}
	if a.FetchErrors == 0 {
		t.Fatal("2% loss produced zero fetch errors; the retry path went unexercised")
	}
	if a.Sessions == 0 || a.FetchP99us <= 0 {
		t.Fatalf("implausible result: %+v", a)
	}
}

func TestVirtualFastNetworkNeverRebuffers(t *testing.T) {
	// Latency well under the chunk duration with pipelining: after the
	// startup buffer, delivery always beats the playhead.
	res, err := RunVirtual(VirtualConfig{
		Config: Config{
			Catalog:       &Catalog{Objects: 4, ObjectChunks: 32, ChunkBytes: 256, Salt: 1},
			Viewers:       4,
			Seed:          7,
			ChunkDur:      4 * time.Millisecond,
			StartupChunks: 2,
			Window:        8,
			MaxInFlight:   4,
		},
		BaseLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 4 {
		t.Fatalf("sessions = %d, want one per viewer", res.Sessions)
	}
	if want := uint64(4 * 32); res.Chunks != want {
		t.Fatalf("chunks = %d, want %d", res.Chunks, want)
	}
	if res.Rebuffers != 0 || res.DeadlineMiss != 0 || res.StallNs != 0 {
		t.Fatalf("fast network still stalled: %+v", res)
	}
}

func TestVirtualSlowNetworkRebuffers(t *testing.T) {
	// One fetch at a time, each slower than a chunk's playback: the
	// playhead must outrun delivery and stall on (nearly) every chunk.
	res, err := RunVirtual(VirtualConfig{
		Config: Config{
			Catalog:       &Catalog{Objects: 2, ObjectChunks: 16, ChunkBytes: 256, Salt: 2},
			Viewers:       2,
			Seed:          9,
			ChunkDur:      time.Millisecond,
			StartupChunks: 1,
			Window:        2,
			MaxInFlight:   1,
		},
		BaseLatency: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers == 0 || res.DeadlineMiss == 0 || res.StallNs == 0 {
		t.Fatalf("slow serial network never stalled: %+v", res)
	}
	if res.RebufferRate <= 0 || res.RebufferRate > 1 {
		t.Fatalf("rebuffer rate %v outside (0, 1]", res.RebufferRate)
	}
}

func TestVirtualHeavyLossStillCompletes(t *testing.T) {
	res, err := RunVirtual(VirtualConfig{
		Config: Config{
			Catalog:      &Catalog{Objects: 2, ObjectChunks: 8, ChunkBytes: 64, Salt: 3},
			Viewers:      2,
			Seed:         11,
			ChunkDur:     time.Millisecond,
			MaxInFlight:  2,
			RetryBackoff: 500 * time.Microsecond,
		},
		BaseLatency: 200 * time.Microsecond,
		LossProb:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 2 || res.Chunks != 16 {
		t.Fatalf("lossy run incomplete: %+v", res)
	}
	if res.FetchErrors == 0 {
		t.Fatal("50% loss produced zero errors")
	}
}

func TestVirtualWakesWithFetchesInFlight(t *testing.T) {
	// Every fetch takes 3 ms and every chunk plays for 2 ms. Chunks 0
	// and 1 arrive together at 3 ms; chunk 0 starts playback, so chunk
	// k's boundary falls at 3+2k ms until the first stall. The window of
	// 2 opens a slot only when the playhead crosses a boundary, so the
	// boundary wake must fire even with a fetch in flight:
	//
	//   - at boundary(1)+ the playhead reaches chunk 1 and chunk 2 goes
	//     out; it lands 3 ms later, 1 ms past boundary(2): a rebuffer.
	//   - at boundary(2)+, stalled on chunk 2 with it still in flight,
	//     the window is [2, 4) and chunk 3 goes out. Chunk 2 ends the
	//     stall 1 ms later, shifting chunk 3's deadline by 1 ms, so
	//     chunk 3 lands exactly on its boundary: on time.
	//
	// The pair repeats from chunk 4: every even chunk from 2 to 38
	// stalls and every odd one arrives on time, 19 rebuffers. Waking
	// only with nothing in flight skips the wake at the stall, so each
	// chunk goes out when its predecessor lands and all of 2..39 stall:
	// 38.
	res, err := RunVirtual(VirtualConfig{
		Config: Config{
			Catalog:       &Catalog{Objects: 1, ObjectChunks: 40, ChunkBytes: 64, Salt: 4},
			Viewers:       1,
			Seed:          1,
			ChunkDur:      2 * time.Millisecond,
			StartupChunks: 1,
			Window:        2,
			MaxInFlight:   2,
		},
		BaseLatency: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 40 || res.Rebuffers != 19 {
		t.Fatalf("chunks=%d rebuffers=%d, want 40 and 19", res.Chunks, res.Rebuffers)
	}
}
