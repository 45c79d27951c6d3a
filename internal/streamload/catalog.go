// Package streamload is the streaming content-delivery workload for the
// networked runtime: chunked objects stored in the DHT, fetched by
// viewers that play them back in sequence against a real-time clock.
//
// The paper's workload model is write-heavy — tasks are injected and
// consumed — but the deployments that motivate it (§I's file-sharing
// networks) are read-heavy: a popular object is fetched by thousands of
// peers while stored exactly once. This package renders that workload:
// an object is split into fixed-size chunks, chunk c of object o is
// stored under SHA1(objectName || "#" || c), and a viewer fetches chunks
// sequentially through a bounded prefetch window while a playback clock
// consumes them at the object's bitrate. Two chunk-level SLOs fall out:
// a rebuffer (the playhead reached a chunk that had not arrived) and a
// deadline miss (a chunk arrived after the playhead's schedule said it
// was needed).
//
// The read path couples back to the paper's strategies through
// netchord's Config.ReadWorkUnits: every served fetch charges the owner
// task units, so a viral object registers as workload the strategies
// can shed by splitting its arc among Sybil identities. One session
// loop drives every Viewer, fed by one of two event sources: Engine.Run
// fetches through any Fetcher on the wall clock (a live cluster,
// cmd/dhtload -stream), and RunVirtual schedules seeded completions on
// a discrete-event clock, so its runs are bit-for-bit reproducible.
// See docs/STREAMING.md for the model and a worked session.
package streamload

import (
	"fmt"

	"chordbalance/internal/ids"
	"chordbalance/internal/keys"
	"chordbalance/internal/xrand"
)

// Catalog describes the stored content: Objects objects of ObjectChunks
// chunks each, with deterministic names, keys, and payloads, so any
// party that knows the catalog parameters can generate, fetch, or
// verify any chunk independently.
type Catalog struct {
	// Objects is the number of distinct objects.
	Objects int
	// ObjectChunks is the number of chunks per object.
	ObjectChunks int
	// ChunkBytes is the payload size of every chunk except possibly the
	// last one of each object.
	ChunkBytes int
	// TailBytes is the size of each object's final chunk; 0 means the
	// final chunk is full (ChunkBytes). Real objects are rarely an exact
	// multiple of the chunk size, and the short tail is a classic
	// off-by-one trap for prefetch windows, so the catalog models it.
	TailBytes int
	// Salt seeds object naming and payload generation; two catalogs
	// with the same parameters and salt are byte-identical.
	Salt uint64
	// HotBits, when positive, maps every chunk key into one arc
	// spanning 2^(ids.Bits-HotBits) identifiers starting at ArcLow —
	// the same skew knob as dhtload's -hot-bits, so the streaming
	// workload can concentrate on the arc a strategy must shed.
	HotBits int
	// ArcLow is the start of the hot arc (only read when HotBits > 0).
	ArcLow ids.ID
}

// Validate reports the first nonsensical catalog parameter.
func (c *Catalog) Validate() error {
	switch {
	case c.Objects < 1:
		return fmt.Errorf("streamload: catalog needs at least 1 object, got %d", c.Objects)
	case c.ObjectChunks < 1:
		return fmt.Errorf("streamload: catalog needs at least 1 chunk per object, got %d", c.ObjectChunks)
	case c.ChunkBytes < 1:
		return fmt.Errorf("streamload: catalog needs positive chunk size, got %d", c.ChunkBytes)
	case c.TailBytes < 0 || c.TailBytes > c.ChunkBytes:
		return fmt.Errorf("streamload: tail size %d outside [0, %d]", c.TailBytes, c.ChunkBytes)
	case c.HotBits < 0 || c.HotBits >= ids.Bits:
		return fmt.Errorf("streamload: hot bits %d outside [0, %d)", c.HotBits, ids.Bits)
	}
	return nil
}

// TotalChunks is the number of stored chunks across all objects.
func (c *Catalog) TotalChunks() int { return c.Objects * c.ObjectChunks }

// TotalBytes is the stored payload volume across all objects.
func (c *Catalog) TotalBytes() int64 {
	perObject := int64(c.ObjectChunks-1)*int64(c.ChunkBytes) + int64(c.ChunkSize(c.ObjectChunks-1))
	return int64(c.Objects) * perObject
}

// ChunkSize returns the payload size of chunk index chunk (the tail
// chunk may be short).
func (c *Catalog) ChunkSize(chunk int) int {
	if chunk == c.ObjectChunks-1 && c.TailBytes > 0 {
		return c.TailBytes
	}
	return c.ChunkBytes
}

// ObjectName returns the textual name of object obj — the value hashed
// (with the chunk index) into ring keys, mirroring how file-sharing
// DHTs key content by name.
func (c *Catalog) ObjectName(obj int) string {
	return fmt.Sprintf("stream/%016x/%d", c.Salt, obj)
}

// ChunkKey returns the ring key of chunk index chunk of object obj:
// SHA1(objectName || "#" || chunk), optionally folded into the hot arc.
func (c *Catalog) ChunkKey(obj, chunk int) ids.ID {
	id := keys.HashString(fmt.Sprintf("%s#%d", c.ObjectName(obj), chunk))
	if c.HotBits <= 0 {
		return id
	}
	// Zero the top HotBits bits, collapsing the hash into
	// [0, 2^(Bits-HotBits)), then translate to the arc's start. The low
	// bits keep their SHA-1 spread, so chunks still scatter across every
	// node inside the arc.
	full, rem := c.HotBits/8, c.HotBits%8
	for i := 0; i < full; i++ {
		id[i] = 0
	}
	if rem > 0 {
		id[full] &= 0xff >> rem
	}
	return c.ArcLow.Add(id)
}

// ChunkPayload returns the deterministic payload bytes of chunk index
// chunk of object obj. Payloads are pseudo-random (so they do not
// compress or dedup accidentally) and reproducible from the catalog
// alone, which is what lets a soak test prove zero acked-chunk loss: a
// fetched chunk must equal ChunkPayload exactly or something was lost.
func (c *Catalog) ChunkPayload(obj, chunk int) []byte {
	n := c.ChunkSize(chunk)
	buf := make([]byte, n)
	r := xrand.Split(c.Salt, uint64(obj)<<24|uint64(chunk))
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			buf[i+j] = byte(v >> (8 * j))
		}
	}
	return buf
}

// VerifyChunk reports whether got is exactly the payload of (obj,
// chunk). A mismatch on an acked chunk is data loss.
func (c *Catalog) VerifyChunk(obj, chunk int, got []byte) bool {
	want := c.ChunkPayload(obj, chunk)
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Putter is the write half a catalog ingest needs; *netchord.Client
// satisfies it.
type Putter interface {
	Put(key ids.ID, value []byte) error
}

// Ingest stores every chunk of the catalog through p, fanning out over
// workers concurrent writers (p must be safe for concurrent use, as
// netchord clients are). A nil error means every chunk in the catalog
// was durably acknowledged.
func Ingest(p Putter, cat *Catalog, workers int) error {
	if err := cat.Validate(); err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	total := cat.TotalChunks()
	if workers > total {
		workers = total
	}
	jobs := make(chan int, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for idx := range jobs {
				if first != nil {
					continue // keep draining so the feeder never blocks
				}
				obj, chunk := idx/cat.ObjectChunks, idx%cat.ObjectChunks
				if err := p.Put(cat.ChunkKey(obj, chunk), cat.ChunkPayload(obj, chunk)); err != nil {
					first = fmt.Errorf("streamload: ingest object %d chunk %d: %w", obj, chunk, err)
				}
			}
			errs <- first
		}()
	}
	for idx := 0; idx < total; idx++ {
		jobs <- idx
	}
	close(jobs)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
