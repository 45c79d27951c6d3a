package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"chordbalance/internal/ids"
)

// Segment-record geometry. One record on disk is
//
//	offset  size  field
//	0       4     body length (big endian, recFixedLen..recFixedLen+MaxValueLen)
//	4       4     CRC-32C of the body (Castagnoli)
//	8       1     flags (bit 0 = tombstone; other bits reserved, must be 0)
//	9       8     version (big endian)
//	17      20    key (ids.Bytes)
//	37      4     value length (big endian, must equal body length - recFixedLen)
//	41      n     value bytes
//
// The double length (body length in the header, value length in the
// body) is deliberate: the header length frames the record before the
// checksum is verified, and the body length is covered BY the checksum,
// so a corrupt header cannot silently re-frame valid bytes.
const (
	// RecordHeaderLen is the fixed per-record header: body length + CRC.
	RecordHeaderLen = 8
	// recFixedLen is the body size of a record with an empty value.
	recFixedLen = 1 + 8 + ids.Bytes + 4
	// recValueOff is the offset of the value bytes from the record start.
	recValueOff = RecordHeaderLen + recFixedLen
	// MaxValueLen caps one stored value; it matches wire.MaxValueLen so
	// any value that fits in a frame fits in the log and vice versa.
	MaxValueLen = 64 << 10
	// MaxRecordLen is the largest encoded record.
	MaxRecordLen = RecordHeaderLen + recFixedLen + MaxValueLen

	flagTombstone = 0x01
	flagsKnown    = flagTombstone
)

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Rec is one logical record: a key, its last-writer-wins version, and
// the value bytes. Tombstone records mark a deletion at a version and
// carry no value.
type Rec struct {
	Key       ids.ID
	Ver       uint64
	Value     []byte
	Tombstone bool
}

// AppendRecord encodes r, appending the complete segment record to dst
// and returning the extended slice. It fails only on an oversized value
// or a tombstone carrying bytes; dst is returned unmodified on error.
func AppendRecord(dst []byte, r Rec) ([]byte, error) {
	if len(r.Value) > MaxValueLen {
		return dst, fmt.Errorf("%w: value %d > %d", ErrTooLarge, len(r.Value), MaxValueLen)
	}
	if r.Tombstone && len(r.Value) != 0 {
		return dst, fmt.Errorf("%w: tombstone with %d value bytes", ErrTooLarge, len(r.Value))
	}
	body := recFixedLen + len(r.Value)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, 0, 0, 0, 0) // CRC backpatched below
	bodyStart := len(dst)
	flags := byte(0)
	if r.Tombstone {
		flags = flagTombstone
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, r.Ver)
	dst = append(dst, r.Key[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Value)))
	dst = append(dst, r.Value...)
	crc := crc32.Checksum(dst[bodyStart:], castagnoli)
	binary.BigEndian.PutUint32(dst[bodyStart-4:bodyStart], crc)
	return dst, nil
}

// DecodeRecord parses one record from the front of b, returning the
// record and the number of bytes consumed. It returns ErrShortRecord
// when b holds a valid prefix of a record that simply ends early (the
// torn-tail case) and ErrCorrupt when the bytes present are provably
// not a record (bad length, CRC mismatch, inconsistent value length,
// unknown flags). The returned value does not alias b.
func DecodeRecord(b []byte) (Rec, int, error) {
	r, n, err := viewRecord(b)
	if err == nil && len(r.Value) > 0 {
		r.Value = append([]byte(nil), r.Value...)
	}
	return r, n, err
}

// viewRecord is DecodeRecord without the copy: it verifies the record at
// the front of b in place, and the returned value aliases b (nil when
// empty). The log scanner yields these views.
func viewRecord(b []byte) (Rec, int, error) {
	var r Rec
	if len(b) < RecordHeaderLen {
		return r, 0, ErrShortRecord
	}
	body := int(binary.BigEndian.Uint32(b[0:4]))
	if body < recFixedLen || body > recFixedLen+MaxValueLen {
		return r, 0, fmt.Errorf("%w: body length %d", ErrCorrupt, body)
	}
	total := RecordHeaderLen + body
	if len(b) < total {
		return r, 0, ErrShortRecord
	}
	crc := binary.BigEndian.Uint32(b[4:8])
	if crc32.Checksum(b[RecordHeaderLen:total], castagnoli) != crc {
		return r, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	flags := b[RecordHeaderLen]
	if flags&^flagsKnown != 0 {
		return r, 0, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	r.Tombstone = flags&flagTombstone != 0
	r.Ver = binary.BigEndian.Uint64(b[RecordHeaderLen+1 : RecordHeaderLen+9])
	r.Key = ids.FromBytes(b[RecordHeaderLen+9 : RecordHeaderLen+9+ids.Bytes])
	vlen := int(binary.BigEndian.Uint32(b[recValueOff-4 : recValueOff]))
	if vlen != body-recFixedLen {
		return r, 0, fmt.Errorf("%w: value length %d in body %d", ErrCorrupt, vlen, body)
	}
	if r.Tombstone && vlen != 0 {
		return r, 0, fmt.Errorf("%w: tombstone with %d value bytes", ErrCorrupt, vlen)
	}
	if vlen > 0 {
		r.Value = b[recValueOff:total:total]
	}
	return r, total, nil
}
