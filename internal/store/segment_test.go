package store

import (
	"bytes"
	"runtime"
	"testing"

	"chordbalance/internal/ids"
)

// TestMemBackendAppendsAmortized appends 512-byte records to a memory
// segment one after another. The buffer grows by doubling, so all but a
// logarithmic few appends reuse capacity and allocate nothing.
func TestMemBackendAppendsAmortized(t *testing.T) {
	mb := &memBackend{}
	rec := bytes.Repeat([]byte{0xa5}, 512)
	var off int64
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := mb.WriteAt(rec, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(rec))
	})
	if allocs != 0 {
		t.Errorf("an append to a memory segment allocates %v times on average, want 0", allocs)
	}
	got := make([]byte, len(rec))
	if _, err := mb.ReadAt(got, off-int64(len(rec))); err != nil || !bytes.Equal(got, rec) {
		t.Fatalf("last record reads back %x, %v", got[:8], err)
	}
}

// TestMemStorePutAllocBytes bounds what a Put to a memory-backed store
// allocates. Growing the segment by one copy per append cost a Put
// about a segment's length (megabytes); doubling costs it about twice
// the record.
func TestMemStorePutAllocBytes(t *testing.T) {
	s := open(t, "", Options{})
	defer s.Close()
	value := bytes.Repeat([]byte{0x3c}, 512)
	const puts = 4000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range puts {
		if _, err := s.Put(ids.FromUint64(uint64(i)), value); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / puts; per > 16<<10 {
		t.Errorf("a 512-byte Put to a memory store allocates %d bytes, want at most 16 KiB", per)
	}
}

// TestMemBackendTruncateThenGrow truncates a written segment and writes
// past its new end into the kept capacity: the gap reads as zeros, not
// as the bytes written before the truncate.
func TestMemBackendTruncateThenGrow(t *testing.T) {
	mb := &memBackend{}
	if _, err := mb.WriteAt(bytes.Repeat([]byte{0xff}, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := mb.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.WriteAt([]byte{7}, 50); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 51)
	if n, err := mb.ReadAt(got, 0); n != 51 || err != nil {
		t.Fatalf("ReadAt = %d, %v; want 51 bytes", n, err)
	}
	want := append(append(bytes.Repeat([]byte{0xff}, 10), make([]byte, 40)...), 7)
	if !bytes.Equal(got, want) {
		t.Errorf("segment after truncate and grow:\n got %x\nwant %x", got, want)
	}
	if n, err := mb.ReadAt(make([]byte, 1), 51); n != 0 || err == nil {
		t.Errorf("read past the end = %d, %v; want io.EOF", n, err)
	}
}
