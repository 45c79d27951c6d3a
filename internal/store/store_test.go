package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/xrand"
)

// open is a test helper: file-backed when dir != "", fatal on error.
func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Rec{
		{Key: ids.FromUint64(1), Ver: 1, Value: []byte("hello")},
		{Key: ids.FromUint64(2), Ver: 1 << 60, Value: nil},
		{Key: ids.MustHex("ffffffffffffffffffffffffffffffffffffffff"), Ver: 7, Value: bytes.Repeat([]byte{0xab}, MaxValueLen)},
		{Key: ids.FromUint64(3), Ver: 9, Tombstone: true},
	}
	for i, in := range cases {
		buf, err := AppendRecord(nil, in)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		out, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: consumed %d of %d", i, n, len(buf))
		}
		if !reflect.DeepEqual(normalizeRec(in), normalizeRec(out)) {
			t.Errorf("case %d: mismatch\n in: %+v\nout: %+v", i, in, out)
		}
	}
	if _, err := AppendRecord(nil, Rec{Value: make([]byte, MaxValueLen+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized value: %v", err)
	}
	if _, err := AppendRecord(nil, Rec{Tombstone: true, Value: []byte("x")}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("tombstone with value: %v", err)
	}
}

func normalizeRec(r Rec) Rec {
	if len(r.Value) == 0 {
		r.Value = nil
	}
	return r
}

func TestRecordRejectsCorruption(t *testing.T) {
	good, err := AppendRecord(nil, Rec{Key: ids.FromUint64(9), Ver: 3, Value: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	// Any single flipped bit must fail the CRC (or a bounds check) —
	// never decode to a different record.
	for i := 0; i < len(good)*8; i++ {
		b := append([]byte(nil), good...)
		b[i/8] ^= 1 << (i % 8)
		rec, _, derr := DecodeRecord(b)
		if derr == nil {
			t.Fatalf("bit %d: corrupt record decoded: %+v", i, rec)
		}
	}
	// A truncated record is short, not corrupt: replay treats it as a
	// torn tail.
	for cut := 0; cut < len(good); cut++ {
		_, _, derr := DecodeRecord(good[:cut])
		if derr == nil {
			t.Fatalf("prefix %d decoded", cut)
		}
	}
}

func TestPutGetDeleteBasics(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "file"
		}
		t.Run(name, func(t *testing.T) {
			s := open(t, dir, Options{SyncWrites: dir != ""})
			defer func() { _ = s.Close() }()
			key := ids.FromUint64(42)
			if _, _, ok, err := s.Get(key); ok || err != nil {
				t.Fatalf("empty get: ok=%v err=%v", ok, err)
			}
			v1, err := s.Put(key, []byte("one"))
			if err != nil || v1 != 1 {
				t.Fatalf("put: ver=%d err=%v", v1, err)
			}
			v2, err := s.Put(key, []byte("two"))
			if err != nil || v2 != 2 {
				t.Fatalf("put2: ver=%d err=%v", v2, err)
			}
			got, ver, ok, err := s.Get(key)
			if err != nil || !ok || ver != 2 || string(got) != "two" {
				t.Fatalf("get: %q ver=%d ok=%v err=%v", got, ver, ok, err)
			}
			dver, had, err := s.Delete(key)
			if err != nil || !had || dver != 3 {
				t.Fatalf("delete: ver=%d had=%v err=%v", dver, had, err)
			}
			if _, _, ok, _ := s.Get(key); ok {
				t.Fatal("deleted key still present")
			}
			if _, had, err := s.Delete(key); had || err != nil {
				t.Fatalf("double delete: had=%v err=%v", had, err)
			}
			if s.Len() != 0 {
				t.Fatalf("Len=%d after delete", s.Len())
			}
		})
	}
}

func TestApplyLastWriterWins(t *testing.T) {
	s := open(t, "", Options{})
	key := ids.FromUint64(5)
	if applied, _, _ := s.Apply(Rec{Key: key, Ver: 3, Value: []byte("v3")}); !applied {
		t.Fatal("fresh apply rejected")
	}
	// Older version loses.
	if applied, cur, _ := s.Apply(Rec{Key: key, Ver: 2, Value: []byte("v2")}); applied || cur != 3 {
		t.Fatalf("old version applied=%v cur=%d", applied, cur)
	}
	// Same version, same bytes: idempotent no-op.
	if applied, _, _ := s.Apply(Rec{Key: key, Ver: 3, Value: []byte("v3")}); applied {
		t.Fatal("identical record re-applied")
	}
	// Same version, different bytes: the larger sum wins on every
	// replica, whichever order the records arrive in.
	a := Rec{Key: key, Ver: 4, Value: []byte("conflict-a")}
	b := Rec{Key: key, Ver: 4, Value: []byte("conflict-b")}
	s2 := open(t, "", Options{})
	for _, r := range []Rec{a, b} {
		if _, _, err := s.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []Rec{b, a} {
		if _, _, err := s2.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	g1, v1, _, _ := s.Get(key)
	g2, v2, _, _ := s2.Get(key)
	if v1 != v2 || !bytes.Equal(g1, g2) {
		t.Fatalf("replicas diverged: %q@%d vs %q@%d", g1, v1, g2, v2)
	}
	// A put after a conflicting history lands above it.
	ver, err := s.PutAtLeast(key, 9, []byte("fresh"))
	if err != nil || ver != 9 {
		t.Fatalf("PutAtLeast: ver=%d err=%v", ver, err)
	}
}

// TestRestartEqualsReplay is the recovery-determinism contract: after
// an arbitrary operation history, closing and reopening must rebuild an
// index identical to the pre-close one — and identical to a clean
// replay into a fresh memory store fed the same surviving log bytes.
func TestRestartEqualsReplay(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 512}) // force many rotations
	rng := xrand.NewStream(11, 0)
	for i := 0; i < 500; i++ {
		key := ids.FromUint64(rng.Uint64() % 40)
		switch rng.Uint64() % 5 {
		case 0:
			if _, _, err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		case 1:
			rec := Rec{Key: key, Ver: rng.Uint64() % 8, Value: []byte(fmt.Sprintf("apply-%d", i))}
			if _, _, err := s.Apply(rec); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := s.Put(key, []byte(fmt.Sprintf("put-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := dumpState(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := open(t, dir, Options{})
	defer func() { _ = re.Close() }()
	after := dumpState(t, re)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("reopened state differs\nbefore: %v\nafter:  %v", before, after)
	}
	if st := re.Stats(); st.Replayed == 0 {
		t.Fatal("no records replayed")
	}
	// And the Merkle digest agrees, which is what replicas actually
	// compare.
	d1, n1 := re.Digest(ids.Zero, ids.Zero)
	s2 := open(t, "", Options{})
	recs, err := re.ArcRecs(ids.Zero, ids.Zero, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ApplyAll(recs); err != nil {
		t.Fatal(err)
	}
	d2, n2 := s2.Digest(ids.Zero, ids.Zero)
	if d1 != d2 || n1 != n2 {
		t.Fatalf("digest mismatch after re-apply: %x/%d vs %x/%d", d1, n1, d2, n2)
	}
}

// dumpState flattens a store to a deterministic key → (ver, value)
// view.
func dumpState(t *testing.T, s *Store) map[ids.ID]string {
	t.Helper()
	out := make(map[ids.ID]string)
	for _, key := range s.Keys() {
		v, ver, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("dump %s: ok=%v err=%v", key.Short(), ok, err)
		}
		out[key] = fmt.Sprintf("%d:%q", ver, v)
	}
	return out
}

// TestTornTailTruncationSweep cuts a valid log at every possible byte
// boundary and asserts each prefix opens cleanly with exactly the
// records whose final byte survived — the crash model for a single
// torn append.
func TestTornTailTruncationSweep(t *testing.T) {
	master := t.TempDir()
	s := open(t, master, Options{})
	type kv struct {
		ver uint64
		val string
	}
	var ends []int64 // log length after each append
	want := make(map[ids.ID]kv)
	wantAt := make([]map[ids.ID]kv, 0, 9)
	for i := 0; i < 8; i++ {
		key := ids.FromUint64(uint64(i % 3))
		val := fmt.Sprintf("v%d", i)
		ver, err := s.Put(key, []byte(val))
		if err != nil {
			t.Fatal(err)
		}
		want[key] = kv{ver, val}
		snap := make(map[ids.ID]kv, len(want))
		for k, v := range want {
			snap[k] = v
		}
		wantAt = append(wantAt, snap)
		st := s.Stats()
		ends = append(ends, st.TotalBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(master, segmentName(0))
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != ends[len(ends)-1] {
		t.Fatalf("log %d bytes, want %d", len(full), ends[len(ends)-1])
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Which records fully survive the cut?
		complete := -1
		for i, end := range ends {
			if int64(cut) >= end {
				complete = i
			}
		}
		wantState := map[ids.ID]kv{}
		if complete >= 0 {
			wantState = wantAt[complete]
		}
		if re.Len() != len(wantState) {
			t.Fatalf("cut %d: %d keys, want %d", cut, re.Len(), len(wantState))
		}
		for k, w := range wantState {
			v, ver, ok, err := re.Get(k)
			if err != nil || !ok || ver != w.ver || string(v) != w.val {
				t.Fatalf("cut %d key %s: %q@%d ok=%v err=%v want %q@%d",
					cut, k.Short(), v, ver, ok, err, w.val, w.ver)
			}
		}
		// The torn tail must actually be gone so the next append is
		// aligned.
		if partial := int64(cut) - logEndAt(ends, cut); partial > 0 {
			if st := re.Stats(); st.TruncatedTails != 1 {
				t.Fatalf("cut %d: TruncatedTails=%d", cut, st.TruncatedTails)
			}
		}
		// And the store must accept new writes cleanly.
		if _, err := re.Put(ids.FromUint64(99), []byte("after")); err != nil {
			t.Fatalf("cut %d: post-recovery put: %v", cut, err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// logEndAt returns the largest record boundary <= cut.
func logEndAt(ends []int64, cut int) int64 {
	end := int64(0)
	for _, e := range ends {
		if int64(cut) >= e {
			end = e
		}
	}
	return end
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{SegmentBytes: 256, CompactMinBytes: 1, CompactFrac: 0.01})
	key := ids.FromUint64(7)
	// Overwrite one key many times: almost everything becomes dead.
	for i := 0; i < 200; i++ {
		if _, err := s.Put(key, []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put(ids.FromUint64(8), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotations, got %d segments", st.Segments)
	}
	ran, err := s.MaybeCompact()
	if err != nil || !ran {
		t.Fatalf("MaybeCompact: ran=%v err=%v", ran, err)
	}
	st2 := s.Stats()
	if st2.TotalBytes >= st.TotalBytes/4 {
		t.Fatalf("compaction reclaimed little: %d -> %d bytes", st.TotalBytes, st2.TotalBytes)
	}
	if got, ver, ok, err := s.Get(key); err != nil || !ok || ver != 200 || string(got) != "value-199" {
		t.Fatalf("after compact: %q@%d ok=%v err=%v", got, ver, ok, err)
	}
	// Files on disk match the surviving segments.
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != st2.Segments {
		t.Fatalf("%d files on disk, %d segments", len(names), st2.Segments)
	}
	// Restart after compaction replays to the same state.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := open(t, dir, Options{})
	defer func() { _ = re.Close() }()
	if got, ver, ok, err := re.Get(key); err != nil || !ok || ver != 200 || string(got) != "value-199" {
		t.Fatalf("after reopen: %q@%d ok=%v err=%v", got, ver, ok, err)
	}
	if re.Len() != 2 {
		t.Fatalf("Len=%d after reopen", re.Len())
	}
}

func TestConcurrentWritersGroupCommit(t *testing.T) {
	s := open(t, t.TempDir(), Options{SyncWrites: true})
	defer func() { _ = s.Close() }()
	const writers, each = 8, 25
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := ids.FromUint64(uint64(w*1000 + i))
				if _, err := s.Put(key, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, _, ok, err := s.Get(key); !ok || err != nil {
					t.Errorf("read-your-write: ok=%v err=%v", ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*each {
		t.Fatalf("Len=%d want %d", s.Len(), writers*each)
	}
	st := s.Stats()
	if st.Syncs == 0 {
		t.Fatal("no fsyncs with SyncWrites on")
	}
	t.Logf("group commit: %d appends, %d syncs, %d elided", st.Appends, st.Syncs, st.SyncElided)
}

func TestClosedStoreRefuses(t *testing.T) {
	s := open(t, "", Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(ids.FromUint64(1), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("put after close: %v", err)
	}
	if _, _, _, err := s.Get(ids.FromUint64(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("get after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestDestroyRemovesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node-x")
	s := open(t, dir, Options{})
	if _, err := s.Put(ids.FromUint64(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dir survives Destroy: %v", err)
	}
}

// TestAppendValueAllocs pins the read path's cost: appending a value
// into a warm buffer allocates nothing, on the memory and the file
// backend alike.
func TestAppendValueAllocs(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s := open(t, dir, Options{})
		key := ids.FromUint64(7)
		want := bytes.Repeat([]byte{0x5c}, 64)
		if _, err := s.Put(key, want); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, 128)
		var got []byte
		var getErr error
		allocs := testing.AllocsPerRun(200, func() {
			var ok bool
			if got, _, ok, getErr = s.AppendValue(dst[:0], key); !ok && getErr == nil {
				getErr = errors.New("key missing")
			}
		})
		if getErr != nil {
			t.Fatalf("dir %q: %v", dir, getErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("dir %q: read %x, want %x", dir, got, want)
		}
		if allocs != 0 {
			t.Errorf("dir %q: AppendValue into a warm buffer allocates %v, want 0", dir, allocs)
		}
		prefix := []byte("head:")
		if got, _, _, err := s.AppendValue(prefix, key); err != nil || !bytes.Equal(got, append([]byte("head:"), want...)) {
			t.Errorf("dir %q: appending after a prefix: %q, %v", dir, got, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetDetectsValueCorruption flips one value byte in a segment file
// after a Put: the index's SHA-256 sum no longer matches, so Get and
// AppendValue both refuse with ErrCorrupt, and AppendValue hands its
// buffer back unchanged.
func TestGetDetectsValueCorruption(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	defer func() { _ = s.Close() }()
	key := ids.FromUint64(11)
	if _, err := s.Put(key, []byte("a value that will rot")); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0}
	if _, err := f.ReadAt(b, recValueOff+3); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, recValueOff+3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Get(key); ok || !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	dst := []byte("kept")
	got, _, ok, err := s.AppendValue(dst, key)
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Errorf("AppendValue: ok=%v err=%v, want ErrCorrupt", ok, err)
	}
	if string(got) != "kept" {
		t.Errorf("AppendValue returned %q on error, want the buffer unchanged", got)
	}
}
