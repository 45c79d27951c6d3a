// Package store is the durable storage engine under the networked
// Chord runtime (internal/netchord). Each node owns one Store: an
// append-only log of CRC-checked, length-prefixed records split across
// rotating segment files, plus an in-memory key index that is rebuilt
// deterministically by replaying the log on restart.
//
// The engine makes exactly three promises, and everything else is
// shaped around keeping them cheap to verify:
//
//  1. Acknowledged means durable. Put/Apply return only after the
//     record bytes are written — and, when Options.SyncWrites is set,
//     fsynced (group-committed: concurrent writers share one fsync).
//  2. Restart equals replay. Version conflicts are resolved
//     last-writer-wins BEFORE a record is appended, so the log never
//     contains a losing record out of order; replaying segments
//     oldest-first therefore rebuilds the exact pre-crash index, and a
//     torn tail (a partially written final record) is truncated, not
//     fatal.
//  3. Comparable by digest. The index keeps each value's SHA-256 sum,
//     and a sorted leaf arena keeps every (key, version, sum), so two
//     replicas can compare whole key arcs by exchanging one 32-byte
//     Merkle digest (merkle.go) without touching values.
//
// The locking is layered so that no mutex is ever held across a
// blocking syscall class the repo's linter tracks: wmu serializes
// version assignment and appends (positional WriteAt only), mu guards
// the index for readers, and syncMu serializes group-commit fsyncs.
// See docs/STORAGE.md for the record format and recovery walk-through.
package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"chordbalance/internal/ids"
)

// Engine errors.
var (
	// ErrClosed means the store has been closed.
	ErrClosed = errors.New("store: closed")
	// ErrCorrupt means bytes on disk are provably not a valid record.
	ErrCorrupt = errors.New("store: corrupt record")
	// ErrShortRecord means the bytes end before the record does (the
	// torn-tail case recovery truncates).
	ErrShortRecord = errors.New("store: short record")
	// ErrTooLarge means a value exceeds MaxValueLen.
	ErrTooLarge = errors.New("store: too large")
)

// Options tunes one Store; the zero value is usable.
type Options struct {
	// SyncWrites fsyncs before acknowledging each write (group
	// committed). Meaningless for memory-backed stores.
	SyncWrites bool
	// SegmentBytes rotates the active segment once it would exceed
	// this size (default 4 MiB).
	SegmentBytes int64
	// CompactMinBytes is the least dead bytes before MaybeCompact acts
	// (default 1 MiB).
	CompactMinBytes int64
	// CompactFrac is the dead/total byte fraction MaybeCompact requires
	// (default 0.5).
	CompactFrac float64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	if o.CompactFrac <= 0 {
		o.CompactFrac = 0.5
	}
	return o
}

// entry locates one live key in the log.
type entry struct {
	ver  uint64
	sum  [sha256.Size]byte
	seg  uint64
	off  int64
	vlen uint32
	size int64 // full encoded record size
}

// Store is one node's durable key/value engine. All methods are safe
// for concurrent use.
type Store struct {
	dir  string
	opts Options

	// wmu serializes the append path: version assignment, record
	// writes, rotation, and compaction. It also guards scratch (the
	// append path's encode buffer and compaction's batch buffer), scan,
	// moves and the active segment's size.
	wmu     sync.Mutex
	scratch []byte
	// scan is the log scanner replay and compaction share (Open is
	// single-threaded); its window is reused across segments. moves
	// holds the keys of a compaction batch (compact.go).
	scan  logScan
	moves []move

	// appended is the sequence number of the last record written;
	// synced is the highest sequence number known durable.
	appended atomic.Uint64
	synced   atomic.Uint64
	// syncMu serializes group-commit fsyncs.
	syncMu sync.Mutex

	// mu guards the fields below for readers; writers hold wmu AND take
	// mu for the brief structural update.
	mu    sync.RWMutex
	index map[ids.ID]entry
	// leaves is the leaf arena (merkle.go): one leafLen-byte leaf per
	// live key, sorted ascending by key. gen counts its changes and keys
	// the digest memo; it starts at 1 so a zero memo slot never matches.
	leaves     []byte
	gen        uint64
	segs       []*segment
	active     *segment
	nextSeg    uint64
	closed     bool
	totalBytes int64
	deadBytes  int64

	// memoMu guards the digest memo and its hasher. It nests inside mu:
	// a digest reads the arena under mu.RLock.
	memoMu sync.Mutex
	memo   digestMemo

	stats struct {
		appends     atomic.Uint64
		appendBytes atomic.Uint64
		rejected    atomic.Uint64 // LWW losers not appended
		syncs       atomic.Uint64
		syncElided  atomic.Uint64 // group-commit riders
		gets        atomic.Uint64
		compactions atomic.Uint64
		replayed    atomic.Uint64
		truncated   atomic.Uint64 // torn tails cut at Open
		corrupt     atomic.Uint64 // non-final segments with bad tails
	}
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Keys is the live key count, Segments the open segment count.
	Keys, Segments int
	// TotalBytes and DeadBytes describe the log; dead bytes are
	// reclaimed by compaction.
	TotalBytes, DeadBytes int64
	// Appends/AppendBytes count records written; Rejected counts
	// last-writer-wins losers that were never appended.
	Appends, AppendBytes, Rejected uint64
	// Syncs counts fsync calls; SyncElided counts writes that rode a
	// concurrent group commit.
	Syncs, SyncElided uint64
	// Gets counts value reads.
	Gets uint64
	// Compactions counts full log compactions.
	Compactions uint64
	// Replayed counts records applied at Open; TruncatedTails counts
	// torn final records cut off; CorruptSegments counts non-final
	// segments whose tail failed validation.
	Replayed, TruncatedTails, CorruptSegments uint64
}

// Open opens (or creates) a store rooted at dir, replaying any existing
// segments oldest-first to rebuild the index. An empty dir opens a
// memory-backed store with the same semantics minus durability.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:   dir,
		opts:  opts.withDefaults(),
		index: make(map[ids.ID]entry),
		gen:   1,
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segIDs []uint64
	for _, de := range names {
		if id, ok := parseSegmentName(de.Name()); ok {
			segIDs = append(segIDs, id)
		}
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	for i, id := range segIDs {
		if err := s.replaySegment(id, i == len(segIDs)-1); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	if n := len(s.segs); n > 0 {
		s.active = s.segs[n-1]
		s.nextSeg = s.segs[n-1].id + 1
	}
	// Everything replayed is on disk already; start the durability
	// cursor past it.
	s.appended.Store(s.stats.replayed.Load())
	s.synced.Store(s.stats.replayed.Load())
	return s, nil
}

// replaySegment opens segment id and applies its valid record prefix to
// the index. The final segment's torn tail is truncated in place;
// earlier segments with invalid tails are kept (their valid prefix
// counts) and reported in Stats.
func (s *Store) replaySegment(id uint64, last bool) error {
	path := filepath.Join(s.dir, segmentName(id))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	sg := &segment{id: id, path: path, b: fileBackend{f}, size: fi.Size()}
	sc := &s.scan
	sc.reset(sg.b, sg.size)
	for {
		rec, raw, off, ok := sc.next()
		if !ok {
			break
		}
		s.applyReplayed(rec, id, off, int64(len(raw)))
		s.stats.replayed.Add(1)
	}
	if sc.err != nil {
		_ = f.Close()
		return fmt.Errorf("store: segment %d: %w", id, sc.err)
	}
	if valid := sc.valid(); valid < sg.size {
		// A torn or corrupt tail ends this segment's replay. Only the
		// last segment is truncated (the crash that tore it is the only
		// writer that could have); an earlier bad tail is kept as
		// evidence and skipped.
		if last {
			if terr := sg.b.Truncate(valid); terr != nil {
				_ = f.Close()
				return fmt.Errorf("store: truncating torn tail: %w", terr)
			}
			sg.size = valid
			s.stats.truncated.Add(1)
		} else {
			s.stats.corrupt.Add(1)
		}
	}
	s.totalBytes += sg.size
	s.segs = append(s.segs, sg)
	return nil
}

// applyReplayed applies one replayed record with the same
// last-writer-wins rule the live append path uses, so a reopened index
// is identical to the pre-crash one (Open is single-threaded; no locks).
// rec is a scanner view: its value is hashed, never kept.
func (s *Store) applyReplayed(rec Rec, seg uint64, off, size int64) {
	cur, ok := s.index[rec.Key]
	sum := sha256.Sum256(rec.Value)
	if ok && !wins(rec.Ver, sum, cur.ver, cur.sum) {
		s.deadBytes += size
		return
	}
	if ok {
		s.deadBytes += cur.size
	}
	if rec.Tombstone {
		if ok {
			delete(s.index, rec.Key)
			s.dropLeaf(rec.Key)
		}
		s.deadBytes += size
		return
	}
	s.index[rec.Key] = entry{
		ver: rec.Ver, sum: sum, seg: seg, off: off,
		vlen: uint32(len(rec.Value)), size: size,
	}
	s.putLeaf(rec.Key, rec.Ver, sum)
}

// wins reports whether (ver, sum) supersedes (curVer, curSum): higher
// version wins, equal versions tie-break on the value sum so every
// replica converges to one winner without coordination.
func wins(ver uint64, sum [sha256.Size]byte, curVer uint64, curSum [sha256.Size]byte) bool {
	if ver != curVer {
		return ver > curVer
	}
	return bytes.Compare(sum[:], curSum[:]) > 0
}

// Put durably stores value under key at the next local version and
// returns the version assigned.
func (s *Store) Put(key ids.ID, value []byte) (uint64, error) {
	return s.PutAtLeast(key, 0, value)
}

// PutAtLeast stores value under key at a version that is both above the
// local version and at least minVer. Owners use minVer to re-assert a
// fresh write above a replica's newer history (see TReplicate in
// internal/wire) so an acknowledged write is never shadowed by an older
// record during anti-entropy.
func (s *Store) PutAtLeast(key ids.ID, minVer uint64, value []byte) (uint64, error) {
	sum := sha256.Sum256(value)
	s.wmu.Lock()
	cur, ok := s.lookup(key)
	ver := uint64(1)
	if ok {
		ver = cur.ver + 1
	}
	if ver < minVer {
		ver = minVer
	}
	asn, err := s.appendLocked(Rec{Key: key, Ver: ver, Value: value}, sum)
	s.wmu.Unlock()
	if err != nil {
		return 0, err
	}
	return ver, s.ackSync(asn)
}

// Apply merges one replicated record last-writer-wins. It returns
// whether the record was applied (false means the local state already
// supersedes — or equals — it) and the key's now-current version.
// Applied records are as durable as a local Put by return time.
func (s *Store) Apply(rec Rec) (bool, uint64, error) {
	sum := sha256.Sum256(rec.Value)
	s.wmu.Lock()
	cur, ok := s.lookup(rec.Key)
	if ok && !wins(rec.Ver, sum, cur.ver, cur.sum) {
		s.wmu.Unlock()
		s.stats.rejected.Add(1)
		return false, cur.ver, nil
	}
	if !ok && rec.Tombstone {
		s.wmu.Unlock()
		s.stats.rejected.Add(1)
		return false, 0, nil
	}
	asn, err := s.appendLocked(rec, sum)
	s.wmu.Unlock()
	if err != nil {
		return false, 0, err
	}
	return true, rec.Ver, s.ackSync(asn)
}

// ApplyAll merges a batch of records, returning how many applied. The
// batch shares one group commit.
func (s *Store) ApplyAll(recs []Rec) (int, error) {
	applied := 0
	var lastASN uint64
	for _, rec := range recs {
		sum := sha256.Sum256(rec.Value)
		s.wmu.Lock()
		cur, ok := s.lookup(rec.Key)
		if (ok && !wins(rec.Ver, sum, cur.ver, cur.sum)) || (!ok && rec.Tombstone) {
			s.wmu.Unlock()
			s.stats.rejected.Add(1)
			continue
		}
		asn, err := s.appendLocked(rec, sum)
		s.wmu.Unlock()
		if err != nil {
			return applied, err
		}
		applied++
		lastASN = asn
	}
	if applied == 0 {
		return 0, nil
	}
	return applied, s.ackSync(lastASN)
}

// Delete tombstones key at the next version. It reports whether the key
// was present and the tombstone's version.
func (s *Store) Delete(key ids.ID) (uint64, bool, error) {
	var empty [0]byte
	sum := sha256.Sum256(empty[:])
	s.wmu.Lock()
	cur, ok := s.lookup(key)
	if !ok {
		s.wmu.Unlock()
		return 0, false, nil
	}
	ver := cur.ver + 1
	asn, err := s.appendLocked(Rec{Key: key, Ver: ver, Tombstone: true}, sum)
	s.wmu.Unlock()
	if err != nil {
		return 0, false, err
	}
	return ver, true, s.ackSync(asn)
}

// lookup reads the current entry for key (any lock state).
func (s *Store) lookup(key ids.ID) (entry, bool) {
	s.mu.RLock()
	e, ok := s.index[key]
	s.mu.RUnlock()
	return e, ok
}

// appendLocked encodes rec, writes it at the active segment's tail, and
// publishes the index update. Caller holds wmu; the LWW decision has
// already been made, so the log only ever receives winning records in
// order — the property replay depends on.
func (s *Store) appendLocked(rec Rec, sum [sha256.Size]byte) (uint64, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	buf, err := AppendRecord(s.scratch[:0], rec)
	if err != nil {
		return 0, err
	}
	s.scratch = buf[:0]
	if s.active == nil || (s.active.size > 0 && s.active.size+int64(len(buf)) > s.opts.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			return 0, err
		}
	}
	off := s.active.size
	if _, err := s.active.b.WriteAt(buf, off); err != nil {
		// size is not advanced: the next append overwrites the torn
		// bytes, and replay would cut them at the CRC anyway.
		return 0, fmt.Errorf("store: append: %w", err)
	}
	s.active.size += int64(len(buf))
	asn := s.appended.Add(1)
	s.stats.appends.Add(1)
	s.stats.appendBytes.Add(uint64(len(buf)))

	s.mu.Lock()
	old, had := s.index[rec.Key]
	if had {
		s.deadBytes += old.size
	}
	if rec.Tombstone {
		if had {
			delete(s.index, rec.Key)
			s.dropLeaf(rec.Key)
		}
		s.deadBytes += int64(len(buf))
	} else {
		s.index[rec.Key] = entry{
			ver: rec.Ver, sum: sum, seg: s.active.id, off: off,
			vlen: uint32(len(rec.Value)), size: int64(len(buf)),
		}
		s.putLeaf(rec.Key, rec.Ver, sum)
	}
	s.totalBytes += int64(len(buf))
	s.mu.Unlock()
	return asn, nil
}

// rotateLocked freezes the active segment (fsyncing it so group commits
// only ever need to sync the new active file) and installs a fresh one.
// Caller holds wmu.
func (s *Store) rotateLocked() error {
	if s.active != nil {
		if err := s.active.b.Sync(); err != nil {
			return fmt.Errorf("store: freezing segment %d: %w", s.active.id, err)
		}
	}
	id := s.nextSeg
	s.nextSeg++
	sg := &segment{id: id}
	if s.dir == "" {
		sg.b = &memBackend{}
	} else {
		sg.path = filepath.Join(s.dir, segmentName(id))
		f, err := os.OpenFile(sg.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		sg.b = fileBackend{f}
		syncDir(s.dir)
	}
	s.mu.Lock()
	s.segs = append(s.segs, sg)
	s.active = sg
	s.mu.Unlock()
	return nil
}

// ackSync makes everything up to asn durable when SyncWrites is set.
// Concurrent writers group-commit: whoever holds syncMu syncs the
// furthest tail, and everyone whose asn that covered returns without
// touching the disk.
func (s *Store) ackSync(asn uint64) error {
	if !s.opts.SyncWrites || s.dir == "" {
		return nil
	}
	return s.syncTo(asn)
}

// Sync flushes every appended record to stable storage regardless of
// Options.SyncWrites.
func (s *Store) Sync() error {
	if s.dir == "" {
		return nil
	}
	return s.syncTo(s.appended.Load())
}

func (s *Store) syncTo(asn uint64) error {
	if s.synced.Load() >= asn {
		s.stats.syncElided.Add(1)
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced.Load() >= asn {
		s.stats.syncElided.Add(1)
		return nil
	}
	// Everything at or below target is either in a frozen segment
	// (fsynced when it froze) or in the current active file, so one
	// fsync of the active file covers the whole range.
	target := s.appended.Load()
	s.mu.RLock()
	active := s.active
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if active == nil {
		s.synced.Store(target)
		return nil
	}
	if err := active.b.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.stats.syncs.Add(1)
	s.synced.Store(target)
	return nil
}

// Get returns the current value and version for key. ok is false when
// the key is absent. The returned slice is the caller's to keep.
func (s *Store) Get(key ids.ID) (value []byte, ver uint64, ok bool, err error) {
	return s.AppendValue(nil, key)
}

// AppendValue appends key's current value to dst and returns the
// extended slice with the value's version; it reads into dst's spare
// capacity, so a warm buffer reads without allocating. ok is false when
// the key is absent, and then, as on error, dst comes back unchanged.
// A value whose bytes no longer match the index's SHA-256 sum is
// ErrCorrupt.
func (s *Store) AppendValue(dst []byte, key ids.ID) (value []byte, ver uint64, ok bool, err error) {
	s.stats.gets.Add(1)
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return dst, 0, false, ErrClosed
		}
		e, have := s.index[key]
		var sg *segment
		if have {
			sg = s.segByIDLocked(e.seg)
		}
		s.mu.RUnlock()
		if !have {
			return dst, 0, false, nil
		}
		if sg == nil {
			// The entry moved during a compaction between the two
			// lock regions; re-read it.
			continue
		}
		out := slices.Grow(dst, int(e.vlen))[:len(dst)+int(e.vlen)]
		buf := out[len(dst):]
		if e.vlen > 0 {
			if _, rerr := sg.b.ReadAt(buf, e.off+recValueOff); rerr != nil {
				// Compaction may have closed this segment after we
				// dropped mu; the retried lookup sees the new location.
				lastErr = rerr
				continue
			}
		}
		if sha256.Sum256(buf) != e.sum {
			lastErr = fmt.Errorf("%w: key %s value sum mismatch", ErrCorrupt, key.Short())
			continue
		}
		return out, e.ver, true, nil
	}
	return dst, 0, false, fmt.Errorf("store: get: %w", lastErr)
}

// Ver returns the current version for key without reading the value.
func (s *Store) Ver(key ids.ID) (uint64, bool) {
	e, ok := s.lookup(key)
	return e.ver, ok
}

// Len returns the live key count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lenLocked()
}

// Keys returns the live keys in ascending ring order (a copy).
func (s *Store) Keys() []ids.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]ids.ID, s.lenLocked())
	for i := range keys {
		keys[i] = s.keyAt(i)
	}
	return keys
}

// segByIDLocked finds a segment by id; caller holds mu.
func (s *Store) segByIDLocked(id uint64) *segment {
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].id >= id })
	if i < len(s.segs) && s.segs[i].id == id {
		return s.segs[i]
	}
	return nil
}

// Stats snapshots the engine counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := Stats{
		Keys:       s.lenLocked(),
		Segments:   len(s.segs),
		TotalBytes: s.totalBytes,
		DeadBytes:  s.deadBytes,
	}
	s.mu.RUnlock()
	st.Appends = s.stats.appends.Load()
	st.AppendBytes = s.stats.appendBytes.Load()
	st.Rejected = s.stats.rejected.Load()
	st.Syncs = s.stats.syncs.Load()
	st.SyncElided = s.stats.syncElided.Load()
	st.Gets = s.stats.gets.Load()
	st.Compactions = s.stats.compactions.Load()
	st.Replayed = s.stats.replayed.Load()
	st.TruncatedTails = s.stats.truncated.Load()
	st.CorruptSegments = s.stats.corrupt.Load()
	return st
}

// Dir returns the store's directory ("" for memory-backed stores).
func (s *Store) Dir() string { return s.dir }

// Close flushes the active segment and closes every backend. The
// directory (and thus the data) is kept; see Destroy.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	segs := append([]*segment(nil), s.segs...)
	active := s.active
	s.mu.Unlock()
	var first error
	if active != nil {
		// A final flush so a graceful close is durable even with
		// SyncWrites off.
		if err := active.b.Sync(); err != nil && first == nil {
			first = err
		}
	}
	for _, sg := range segs {
		if err := sg.b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Destroy closes the store and deletes its directory — the graceful
// leave path, where ownership has been handed off and keeping the log
// would resurrect stale replicas on an identity reuse.
func (s *Store) Destroy() error {
	err := s.Close()
	if s.dir != "" {
		if rerr := os.RemoveAll(s.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}
