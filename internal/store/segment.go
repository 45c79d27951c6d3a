package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// backend is the byte storage under one segment. Both implementations
// use only positional I/O (ReadAt/WriteAt) so no lock is ever held
// across a method the concurrency linter classifies as blocking, and so
// concurrent readers never share a file offset with the appender.
type backend interface {
	io.ReaderAt
	io.WriterAt
	// Sync makes all written bytes durable (no-op for memory).
	Sync() error
	// Truncate discards bytes past size (torn-tail recovery).
	Truncate(size int64) error
	// Close releases the backend; reads after Close fail.
	Close() error
}

// fileBackend adapts *os.File; every method is positional or whole-file.
type fileBackend struct{ f *os.File }

func (fb fileBackend) ReadAt(p []byte, off int64) (int, error)  { return fb.f.ReadAt(p, off) }
func (fb fileBackend) WriteAt(p []byte, off int64) (int, error) { return fb.f.WriteAt(p, off) }
func (fb fileBackend) Sync() error                              { return fb.f.Sync() }
func (fb fileBackend) Truncate(size int64) error                { return fb.f.Truncate(size) }
func (fb fileBackend) Close() error                             { return fb.f.Close() }

// memBackend is the in-memory segment used when the store is opened
// without a directory (tests, Sybil-heavy clusters where durability is
// not the point). It honors the same ReaderAt/WriterAt contract.
type memBackend struct {
	mu     sync.RWMutex
	b      []byte
	closed bool
}

func (mb *memBackend) ReadAt(p []byte, off int64) (int, error) {
	mb.mu.RLock()
	defer mb.mu.RUnlock()
	if mb.closed {
		return 0, os.ErrClosed
	}
	if off < 0 || off >= int64(len(mb.b)) {
		return 0, io.EOF
	}
	n := copy(p, mb.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (mb *memBackend) WriteAt(p []byte, off int64) (int, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return 0, os.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("store: negative offset %d", off)
	}
	end := off + int64(len(p))
	switch old := int64(len(mb.b)); {
	case end > int64(cap(mb.b)):
		// Double the capacity, so a run of appends copies the segment
		// O(log n) times, not once per append. The new bytes are zeros.
		grown := make([]byte, end, max(end, 2*int64(cap(mb.b))))
		copy(grown, mb.b)
		mb.b = grown
	case end > old:
		// Capacity kept past a Truncate may hold stale bytes: a gap
		// before off reads as zeros, as a file's hole does.
		mb.b = mb.b[:end]
		if off > old {
			clear(mb.b[old:off])
		}
	}
	copy(mb.b[off:end], p)
	return len(p), nil
}

func (mb *memBackend) Sync() error { return nil }

func (mb *memBackend) Truncate(size int64) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if size < 0 || size > int64(len(mb.b)) {
		return fmt.Errorf("store: truncate %d outside [0,%d]", size, len(mb.b))
	}
	mb.b = mb.b[:size]
	return nil
}

func (mb *memBackend) Close() error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	return nil
}

// segment is one append-only log file (or memory region). size is the
// number of valid bytes and is guarded by the store's append mutex for
// the active segment; frozen segments never change size.
type segment struct {
	id   uint64
	path string // "" for memory segments
	b    backend
	size int64
}

// segmentName formats the on-disk file name for segment id.
func segmentName(id uint64) string { return fmt.Sprintf("seg-%08d.log", id) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	var id uint64
	var tail string
	n, err := fmt.Sscanf(name, "seg-%d.log%s", &id, &tail)
	if n >= 1 && err == io.EOF && tail == "" && name == segmentName(id) {
		return id, true
	}
	return 0, false
}

// syncDir fsyncs a directory so segment creations and deletions are
// durable, best-effort on filesystems that reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
