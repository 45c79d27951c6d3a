package store

import (
	"fmt"
	"os"
)

// Compaction reclaims the log bytes shadowed by newer versions. The
// scheme needs no manifest and stays crash-safe by construction:
//
//  1. Rotate, so every record to reclaim lives in a frozen segment.
//  2. Scan the frozen segments oldest-first; re-append every record the
//     index still points at (same key, version, and bytes) through the
//     normal append path, which moves the index entry to the new tail.
//  3. fsync the copies, then delete the drained segment file.
//
// A crash at any point leaves either the original or both copies on
// disk; replay applies them in order with the same last-writer-wins
// rule as the runtime, so duplicates collapse and nothing is lost.

// MaybeCompact runs Compact when the dead-byte fraction crosses the
// configured thresholds; it reports whether a compaction ran.
func (s *Store) MaybeCompact() (bool, error) {
	s.mu.RLock()
	dead, total := s.deadBytes, s.totalBytes
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return false, ErrClosed
	}
	if dead < s.opts.CompactMinBytes || total == 0 ||
		float64(dead) < s.opts.CompactFrac*float64(total) {
		return false, nil
	}
	return true, s.Compact()
}

// Compact rewrites every live record out of the frozen segments and
// deletes them. Writers are blocked for the duration; readers are not.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	// Freeze the current tail so the scan below covers every record
	// written so far; new appends (ours included) land in the fresh
	// active segment.
	if err := s.rotateLocked(); err != nil {
		return err
	}
	s.mu.RLock()
	frozen := append([]*segment(nil), s.segs[:len(s.segs)-1]...)
	s.mu.RUnlock()

	for _, sg := range frozen {
		if err := s.drainSegmentLocked(sg); err != nil {
			return err
		}
		// The copies must be durable before their source disappears.
		if s.dir != "" {
			if err := s.active.b.Sync(); err != nil {
				return fmt.Errorf("store: compaction sync: %w", err)
			}
		}
		s.mu.Lock()
		for i, other := range s.segs {
			if other == sg {
				s.segs = append(s.segs[:i], s.segs[i+1:]...)
				break
			}
		}
		s.totalBytes -= sg.size
		s.mu.Unlock()
		if err := sg.b.Close(); err != nil {
			return fmt.Errorf("store: compaction close: %w", err)
		}
		if sg.path != "" {
			if err := os.Remove(sg.path); err != nil {
				return fmt.Errorf("store: compaction remove: %w", err)
			}
			syncDir(s.dir)
		}
	}
	// Dead bytes now only exist in the active segment; recount them as
	// live bytes minus what the index references.
	s.mu.Lock()
	var live int64
	for _, e := range s.index {
		live += e.size
	}
	s.deadBytes = s.totalBytes - live
	s.mu.Unlock()
	s.stats.compactions.Add(1)
	return nil
}

// drainSegmentLocked re-appends every record of sg the index still
// points at. Caller holds wmu.
func (s *Store) drainSegmentLocked(sg *segment) error {
	buf, err := sg.readAll()
	if err != nil {
		return err
	}
	off := int64(0)
	for int64(len(buf)) > off {
		rec, n, derr := DecodeRecord(buf[off:])
		if derr != nil {
			// The segment's valid prefix was all replay ever used; the
			// tail past it carries no live records by construction.
			return nil
		}
		s.mu.RLock()
		e, live := s.index[rec.Key]
		s.mu.RUnlock()
		if live && e.seg == sg.id && e.off == off {
			sum := e.sum
			if _, err := s.appendLocked(rec, sum); err != nil {
				return err
			}
		}
		off += int64(n)
	}
	return nil
}
