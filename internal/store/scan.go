package store

import (
	"errors"
	"fmt"
	"io"
)

// scanWindow is the log scanner's window. It holds two records of the
// largest size, so after a slide a whole record always fits and every
// refill makes progress.
const scanWindow = 2 * MaxRecordLen

// logScan reads one segment's records front to back through a window
// that is reused from segment to segment, for replay and compaction
// alike. Each record is verified in place (framing and CRC, by
// viewRecord) and yielded as a view: the Rec's value and the record's
// encoded bytes alias the window and stay valid only until the next
// call to next.
type logScan struct {
	win  []byte
	src  io.ReaderAt
	size int64 // the scan covers [0, size) of src
	base int64 // src offset of win[0]
	// win[lo:hi] has been read but not yet yielded.
	lo, hi int
	// err is the first read failure; a record that does not decode is
	// not an error, it ends the valid prefix.
	err error
}

// reset points the scanner at [0, size) of src, keeping its window.
func (sc *logScan) reset(src io.ReaderAt, size int64) {
	win := sc.win
	if win == nil {
		win = make([]byte, scanWindow)
	}
	*sc = logScan{win: win, src: src, size: size}
}

// next yields the next record, its encoded bytes and its offset in the
// segment. It returns ok false at the end of the valid prefix: at size,
// at the first record that does not decode (torn or corrupt), or on a
// read failure, which err then holds.
func (sc *logScan) next() (rec Rec, raw []byte, off int64, ok bool) {
	for sc.err == nil && sc.valid() < sc.size {
		r, n, err := viewRecord(sc.win[sc.lo:sc.hi])
		if err == nil {
			off = sc.valid()
			raw = sc.win[sc.lo : sc.lo+n]
			sc.lo += n
			return r, raw, off, true
		}
		if !errors.Is(err, ErrShortRecord) || !sc.fill() {
			break
		}
	}
	sc.src = nil // a drained segment's backend is not kept alive
	return Rec{}, nil, 0, false
}

// valid is the segment offset of the next record: once next has
// returned false, the length of the segment's valid prefix.
func (sc *logScan) valid() int64 { return sc.base + int64(sc.lo) }

// fill slides the unyielded bytes to the front of the window and reads
// the segment's next bytes behind them. It reports false when no more
// can be read: the segment is exhausted (the short record is a torn
// tail), the window is full (a record longer than the window, which
// only a test's small window can meet), or the read failed.
func (sc *logScan) fill() bool {
	end := sc.base + int64(sc.hi)
	if end >= sc.size || (sc.lo == 0 && sc.hi == len(sc.win)) {
		return false
	}
	kept := copy(sc.win, sc.win[sc.lo:sc.hi])
	sc.base += int64(sc.lo)
	sc.lo, sc.hi = 0, kept
	want := int(min(int64(len(sc.win)-kept), sc.size-end))
	got, err := sc.src.ReadAt(sc.win[kept:kept+want], end)
	if got < want {
		sc.err = fmt.Errorf("short read %d/%d at offset %d: %w", got, want, end, err)
		return false
	}
	sc.hi += got
	return true
}
