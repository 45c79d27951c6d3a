package store

import (
	"fmt"
	"os"

	"chordbalance/internal/ids"
)

// Compaction reclaims the log bytes shadowed by newer versions. The
// scheme needs no manifest and stays crash-safe by construction:
//
//  1. Rotate, so every record to reclaim lives in a frozen segment.
//  2. Scan the frozen segments oldest-first; copy every record the
//     index still points at, byte for byte, to the log's tail in
//     batched writes, then move its index entry to the copy.
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

// move is one live record in a compaction batch: its key and its
// offset in the batch.
type move struct {
	key ids.ID
	at  int
}

// drainSegmentLocked copies every record of sg the index still points
// at to the log's tail, byte for byte: a live record's bytes are
// exactly what AppendRecord would encode again. The copies are gathered
// in scratch and written one batch at a time, under the append path's
// rules: each record lands in the segment appendLocked would have put
// it in, the counters advance per record, and the index moves only once
// the batch's bytes are written. Caller holds wmu.
func (s *Store) drainSegmentLocked(sg *segment) error {
	sc := &s.scan
	sc.reset(sg.b, sg.size)
	batch, moves := s.scratch[:0], s.moves[:0]
	defer func() { s.scratch, s.moves = batch[:0], moves[:0] }()
	for {
		// The segment's valid prefix was all replay ever used; a tail
		// past it carries no live records by construction.
		rec, raw, off, ok := sc.next()
		if !ok {
			break
		}
		s.mu.RLock()
		e, live := s.index[rec.Key]
		s.mu.RUnlock()
		if !live || e.seg != sg.id || e.off != off {
			continue
		}
		tail := s.active.size + int64(len(batch))
		rotate := tail > 0 && tail+int64(len(raw)) > s.opts.SegmentBytes
		if rotate || len(batch)+len(raw) > scanWindow {
			if err := s.writeBatchLocked(batch, moves); err != nil {
				return err
			}
			batch, moves = batch[:0], moves[:0]
			if rotate {
				if err := s.rotateLocked(); err != nil {
					return err
				}
			}
		}
		moves = append(moves, move{key: rec.Key, at: len(batch)})
		batch = append(batch, raw...)
	}
	if sc.err != nil {
		return fmt.Errorf("store: segment %d: %w", sg.id, sc.err)
	}
	return s.writeBatchLocked(batch, moves)
}

// writeBatchLocked writes one compaction batch at the active segment's
// tail and then points each moved key's index entry at its copy. The
// Merkle leaves stay as they are: key, version and sum do not change.
// Caller holds wmu.
func (s *Store) writeBatchLocked(batch []byte, moves []move) error {
	if len(batch) == 0 {
		return nil
	}
	base := s.active.size
	if _, err := s.active.b.WriteAt(batch, base); err != nil {
		// As in appendLocked, size is not advanced and the index still
		// points at the source segment, which is kept.
		return fmt.Errorf("store: compaction append: %w", err)
	}
	s.active.size += int64(len(batch))
	s.appended.Add(uint64(len(moves)))
	s.stats.appends.Add(uint64(len(moves)))
	s.stats.appendBytes.Add(uint64(len(batch)))

	s.mu.Lock()
	for _, m := range moves {
		e := s.index[m.key]
		e.seg, e.off = s.active.id, base+int64(m.at)
		s.index[m.key] = e
	}
	// Each copy shadows its source, which is as long.
	s.deadBytes += int64(len(batch))
	s.totalBytes += int64(len(batch))
	s.mu.Unlock()
	return nil
}
