// Package wire is the versioned, length-prefixed binary codec for the
// networked Chord runtime (internal/netchord). It frames the protocol's
// message set — find_successor routing steps, notify, get/put and task
// submission, versioned replica records and Merkle anti-entropy digest
// exchanges (internal/store), workload queries, the Sybil invitation
// strategy traffic, and the collector's report and stats exchange — as
// self-describing records.
// Conn frames them over a byte stream, one Write call per frame.
//
// The format is deliberately tiny and strict:
//
//	offset  size  field
//	0       2     magic "CB"
//	2       1     version (the Version constant)
//	3       1     message type
//	4       8     request id (big endian)
//	12      4     payload length (big endian, <= MaxPayload)
//	16      n     payload: the type's fields in fixed order
//
// Each message type carries a fixed subset of Msg's fields (see
// fieldsOf); fields not in the subset are never encoded and decode to
// their zero values, so Append/Decode is an exact round trip for valid
// messages. Every length read from the wire is bounds-checked against
// both a hard cap and the bytes actually remaining in the payload, so a
// malicious or corrupt peer can neither panic the decoder nor make it
// over-allocate (FuzzWireRoundTrip locks both properties in).
//
// The codec is stdlib-only, allocation-light, and endian-explicit; see
// docs/NETWORK.md for the full wire-format table.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chordbalance/internal/ids"
)

// Version is the current wire-format version; bump it when the frame
// header or any payload layout changes incompatibly. Version 2 replaced
// the unversioned KV bulk transfers of version 1 with versioned Rec
// records and added the anti-entropy digest exchange (TSync*). Version
// 3 added the admission-puzzle nonce to TJoin and the TEvict density
// eviction notice (docs/ADVERSARY.md). Version 4 widened TWorkloadOK
// and put TInvite's Sybil placement in Key (docs/NETWORK.md). Version
// 5 folded the collector's seven report and progress messages into
// TReport, renumbering the types after TInviteOK, and dropped the D
// slot. Version 6 dropped TJoinOK's Recs and Tasks: the giver pushes a
// joiner's arc as TTransfer chunks during the handshake.
const Version = 6

// Frame geometry and hard bounds. The caps are generous for the runtime's
// actual traffic but small enough that a hostile peer cannot force large
// allocations from a 16-byte header.
const (
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 16
	// MaxPayload caps one frame's payload.
	MaxPayload = 1 << 20
	// MaxValueLen caps one stored value.
	MaxValueLen = 64 << 10
	// MaxListLen caps a successor-list or candidate list.
	MaxListLen = 128
	// MaxRecs caps one bulk record transfer.
	MaxRecs = 8192
	// MaxTasks caps one bulk task transfer.
	MaxTasks = 8192
	// MaxMetas caps one anti-entropy key-metadata exchange.
	MaxMetas = 8192
	// SumLen is the byte length of a record's value checksum (SHA-256)
	// as carried in Meta entries.
	SumLen = 32
	// MaxAddrLen caps one node address string.
	MaxAddrLen = 256
	// MaxTextLen caps an error/text field.
	MaxTextLen = 1024
)

// Codec errors.
var (
	// ErrBadMagic means the frame did not start with "CB".
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrBadVersion means the peer speaks an unknown format version.
	ErrBadVersion = errors.New("wire: unsupported version")
	// ErrBadType means the message type byte is outside the known set.
	ErrBadType = errors.New("wire: unknown message type")
	// ErrTooLarge means a declared length exceeded its cap.
	ErrTooLarge = errors.New("wire: length exceeds bound")
	// ErrTruncated means the payload ended before its declared fields.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTrailing means the payload had bytes after the last field.
	ErrTrailing = errors.New("wire: trailing bytes after payload")
)

// Type identifies one message kind.
type Type uint8

// The message set. Requests and their replies are distinct types; TAck
// is the generic empty success reply and TError the generic failure.
const (
	// TInvalid is the zero Type and never valid on the wire.
	TInvalid Type = iota
	// TPing probes liveness.
	TPing
	// TPong answers TPing.
	TPong
	// TFindSuccessor asks one routing step toward Key (A = hops so far).
	TFindSuccessor
	// TFindSuccessorOK answers: Flag means Node is the owner (done);
	// otherwise Node is the next hop and List holds fallback candidates
	// (the answering node's successor list).
	TFindSuccessorOK
	// TGetPred asks for the predecessor pointer.
	TGetPred
	// TGetPredOK answers: Flag reports whether Node is set.
	TGetPredOK
	// TGetSuccList asks for the successor list.
	TGetSuccList
	// TSuccListOK answers with List.
	TSuccListOK
	// TNotify tells the callee that From may be its predecessor.
	TNotify
	// TJoin asks the callee (the joiner's successor) to admit From. A
	// carries the admission-puzzle nonce (adversary.SolvePuzzle over
	// From's ID; 0 when the ring runs puzzle-free — see Config
	// PuzzleBits in netchord).
	TJoin
	// TJoinOK answers with the callee's successor List, once the callee
	// has pushed the joiner its arc's data and work as TTransfer chunks.
	TJoinOK
	// TGet fetches the value for Key from its owner.
	TGet
	// TGetOK answers: Flag reports whether Key was present, Value holds
	// the bytes, A the record's store version.
	TGetOK
	// TPut stores Value under Key at its owner. The owner replies TAck
	// only after the record is durable locally and on its replica set
	// (the acknowledged-write contract, docs/STORAGE.md).
	TPut
	// TTask submits A units of work under task key Key. B is the
	// sender's idempotency token: retries after a lost reply reuse it,
	// and receivers apply each token at most once so work units are
	// never double-counted (0 = no dedup).
	TTask
	// TReplicate pushes versioned replica Recs to a successor. The
	// receiver applies them last-writer-wins, makes them durable, and
	// replies TAck; when exactly one record is pushed the TAck's A slot
	// carries the receiver's now-current version for that key, letting a
	// version-behind owner re-assert a fresh write above it.
	TReplicate
	// TTransfer hands off Recs and Tasks (graceful leave, churn). A is
	// the sender's idempotency token, as in TTask: task moves must be
	// exactly-once even over an at-least-once RPC layer.
	TTransfer
	// TWorkloadQuery asks a node for its residual task units and its
	// host's answer to an invitation.
	TWorkloadQuery
	// TWorkloadOK answers: A = the node's residual units; B, C = its
	// host's residual and strength; Flag = whether that host would help.
	TWorkloadOK
	// TInvite announces that From (with workload A) is overloaded and
	// invites the callee's host to inject a Sybil at Key, in From's arc
	// (the paper's Invitation strategy, §IV-D).
	TInvite
	// TInviteOK answers: Flag reports whether the callee will help.
	TInviteOK
	// TSyncDigest asks for the callee's Merkle digest over the key arc
	// (Key, Key2] (Key == Key2 means the whole ring).
	TSyncDigest
	// TSyncDigestOK answers: Value is the 32-byte arc digest, A the
	// number of live keys in the arc.
	TSyncDigestOK
	// TSyncKeys asks for per-key metadata over the arc (Key, Key2].
	TSyncKeys
	// TSyncKeysOK answers with Metas (capped at MaxMetas); A is the
	// true arc key count, which may exceed len(Metas).
	TSyncKeysOK
	// TSyncFetch asks for the current records of the keys named in
	// Metas (versions/sums in the request are advisory).
	TSyncFetch
	// TSyncFetchOK answers with the Recs the callee still holds.
	TSyncFetchOK
	// TReport pushes sender From's cumulative counters to the
	// collector: Value is a packed Stats blob (AppendStats). Each report
	// replaces the sender's previous one. From is a host's stable
	// collector identity, or a streaming client's synthetic one (a load
	// generator occupies no ring position).
	TReport
	// TStats asks the collector for the cluster statistics blob.
	TStats
	// TStatsOK answers with Value = a packed Stats blob (AppendStats/
	// DecodeStats define the layout).
	TStatsOK
	// TEvict tells the callee that From's density scan flagged its ID as
	// part of a statistically improbable cluster and it should leave the
	// ring (docs/ADVERSARY.md). Advisory and acknowledged with TAck: a
	// hostile callee ignores it, so the sender's defense is refusing to
	// route around an identity that stays, not trusting compliance.
	TEvict
	// TAck is the generic success reply; A is an optional per-request
	// detail slot (0 when unused — see TReplicate).
	TAck
	// TError is the generic failure reply: Text explains, A is a
	// numeric code (see Err* codes in netchord).
	TError

	typeCount // sentinel: one past the last valid type
)

// TypeCount is one past the largest valid Type value; arrays indexed by
// Type (per-type counters, dispatch tables) use it as their length.
const TypeCount = int(typeCount)

// typeNames renders Type for logs and errors.
var typeNames = [typeCount]string{
	TInvalid: "invalid", TPing: "ping", TPong: "pong",
	TFindSuccessor: "find_successor", TFindSuccessorOK: "find_successor_ok",
	TGetPred: "get_pred", TGetPredOK: "get_pred_ok",
	TGetSuccList: "get_succ_list", TSuccListOK: "succ_list_ok",
	TNotify: "notify", TJoin: "join", TJoinOK: "join_ok",
	TGet: "get", TGetOK: "get_ok", TPut: "put", TTask: "task",
	TReplicate: "replicate", TTransfer: "transfer",
	TWorkloadQuery: "workload_query", TWorkloadOK: "workload_ok",
	TInvite: "invite", TInviteOK: "invite_ok",
	TSyncDigest: "sync_digest", TSyncDigestOK: "sync_digest_ok",
	TSyncKeys: "sync_keys", TSyncKeysOK: "sync_keys_ok",
	TSyncFetch: "sync_fetch", TSyncFetchOK: "sync_fetch_ok",
	TReport: "report", TStats: "stats", TStatsOK: "stats_ok",
	TEvict: "evict",
	TAck:   "ack", TError: "error",
}

// String names the type as used in metrics and docs.
func (t Type) String() string {
	if t < typeCount {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Valid reports whether t is a known, encodable message type.
func (t Type) Valid() bool { return t > TInvalid && t < typeCount }

// NodeRef names one node: its ring identifier plus the address its
// server listens on. Refs travel in routing replies so that a peer
// learned by ID is immediately dialable.
type NodeRef struct {
	ID   ids.ID
	Addr string
}

// IsZero reports whether the ref is unset.
func (r NodeRef) IsZero() bool { return r.ID == ids.Zero && r.Addr == "" }

// Rec is one versioned stored record in a bulk transfer. Ver is the
// store's per-key last-writer-wins version (internal/store); receivers
// apply a Rec only when it wins against what they already hold, so
// replaying or duplicating a transfer is harmless.
type Rec struct {
	Key   ids.ID
	Ver   uint64
	Value []byte
}

// Meta is one key's anti-entropy metadata: its version and the SHA-256
// sum of its value. Two replicas holding equal (Ver, Sum) for a key are
// byte-identical for it without moving the value.
type Meta struct {
	Key ids.ID
	Ver uint64
	Sum [SumLen]byte
}

// Task is one unit-weighted work item in a bulk transfer.
type Task struct {
	Key   ids.ID
	Units uint64
}

// Msg is the decoded form of every message: one Type plus the union of
// all field slots. Each type uses the fixed subset listed in its
// constant's doc comment; Append rejects nothing (it simply skips
// fields outside the subset) and decoding leaves them zero. A Msg that
// (*Conn).ReadMsg fills owns its slices until the next ReadMsg into it.
//
// A Msg read into again reuses what earlier frames decoded into it,
// across frames of other types too: a frame whose type lacks List or
// Recs leaves that field empty but keeps its elements, unexported, for
// the next frame that carries it (see keep), and a frame that lacks
// From or Node keeps its address. An address equal to one the Msg holds
// is shared rather than allocated again (see takeRef). What a Msg holds
// past its fields is thus what one earlier frame decoded into List and
// Recs, bounded by the largest frame it decoded (at most MaxPayload),
// plus two addresses; ReadMsg sheds large slices before it waits.
type Msg struct {
	Type Type
	// Req matches replies to requests on a pooled connection.
	Req uint64

	Key ids.ID
	// Key2 is the second arc boundary for the TSync* exchanges: the
	// pair names the half-open ring arc (Key, Key2].
	Key2  ids.ID
	From  NodeRef
	Node  NodeRef
	List  []NodeRef
	Recs  []Rec
	Tasks []Task
	Metas []Meta
	Value []byte
	// A–C are per-type numeric slots (hop counts, units, codes...).
	A, B, C uint64
	Flag    bool
	Text    string

	// kept is the decoded memory held past the fields for reuse.
	kept kept
}

// kept is the memory a Msg holds past its fields for later frames:
// how many List and Recs elements past len still hold an earlier
// frame's values, and the last From and Node addresses it decoded.
// Tasks and Metas own no heap memory, so their capacity is all there
// is to keep (resize).
type kept struct {
	list, recs int
	from, node string
}

// Field presence bits, in encoding order.
const (
	fKey uint16 = 1 << iota
	fKey2
	fFrom
	fNode
	fList
	fRecs
	fTasks
	fMetas
	fValue
	fA
	fB
	fC
	fFlag
	fText
)

// fieldsOf maps each type to the fields it carries on the wire.
var fieldsOf = [typeCount]uint16{
	TPing:            0,
	TPong:            0,
	TFindSuccessor:   fKey | fA,
	TFindSuccessorOK: fNode | fList | fFlag,
	TGetPred:         0,
	TGetPredOK:       fNode | fFlag,
	TGetSuccList:     0,
	TSuccListOK:      fList,
	TNotify:          fFrom,
	TJoin:            fFrom | fA,
	TJoinOK:          fList,
	TGet:             fKey,
	TGetOK:           fValue | fFlag | fA,
	TPut:             fKey | fValue,
	TTask:            fKey | fA | fB,
	TReplicate:       fRecs,
	TTransfer:        fRecs | fTasks | fA,
	TWorkloadQuery:   0,
	TWorkloadOK:      fA | fB | fC | fFlag,
	TInvite:          fKey | fFrom | fA,
	TInviteOK:        fFlag,
	TSyncDigest:      fKey | fKey2,
	TSyncDigestOK:    fValue | fA,
	TSyncKeys:        fKey | fKey2,
	TSyncKeysOK:      fMetas | fA,
	TSyncFetch:       fMetas,
	TSyncFetchOK:     fRecs,
	TReport:          fFrom | fValue,
	TStats:           0,
	TStatsOK:         fValue,
	TEvict:           fFrom,
	TAck:             fA,
	TError:           fText | fA,
}

// Fields returns the field mask for t (0 for unknown types).
func Fields(t Type) uint16 {
	if t < typeCount {
		return fieldsOf[t]
	}
	return 0
}

// Append encodes m, appending the complete frame to dst and returning
// the extended slice. It returns an error when a field exceeds its cap
// or the type is unknown; dst is returned unmodified on error.
func Append(dst []byte, m *Msg) ([]byte, error) {
	if !m.Type.Valid() {
		return dst, fmt.Errorf("%w: %d", ErrBadType, uint8(m.Type))
	}
	if err := m.check(); err != nil {
		return dst, err
	}
	base := len(dst)
	dst = append(dst, 'C', 'B', Version, byte(m.Type))
	dst = binary.BigEndian.AppendUint64(dst, m.Req)
	dst = append(dst, 0, 0, 0, 0) // payload length backpatched below
	payloadStart := len(dst)

	mask := fieldsOf[m.Type]
	if mask&fKey != 0 {
		dst = append(dst, m.Key[:]...)
	}
	if mask&fKey2 != 0 {
		dst = append(dst, m.Key2[:]...)
	}
	if mask&fFrom != 0 {
		dst = appendRef(dst, m.From)
	}
	if mask&fNode != 0 {
		dst = appendRef(dst, m.Node)
	}
	if mask&fList != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.List)))
		for _, r := range m.List {
			dst = appendRef(dst, r)
		}
	}
	if mask&fRecs != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Recs)))
		for _, rec := range m.Recs {
			dst = append(dst, rec.Key[:]...)
			dst = binary.BigEndian.AppendUint64(dst, rec.Ver)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Value)))
			dst = append(dst, rec.Value...)
		}
	}
	if mask&fTasks != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Tasks)))
		for _, tk := range m.Tasks {
			dst = append(dst, tk.Key[:]...)
			dst = binary.BigEndian.AppendUint64(dst, tk.Units)
		}
	}
	if mask&fMetas != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Metas)))
		for _, mt := range m.Metas {
			dst = append(dst, mt.Key[:]...)
			dst = binary.BigEndian.AppendUint64(dst, mt.Ver)
			dst = append(dst, mt.Sum[:]...)
		}
	}
	if mask&fValue != 0 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Value)))
		dst = append(dst, m.Value...)
	}
	for _, on := range [3]struct {
		bit uint16
		v   uint64
	}{{fA, m.A}, {fB, m.B}, {fC, m.C}} {
		if mask&on.bit != 0 {
			dst = binary.BigEndian.AppendUint64(dst, on.v)
		}
	}
	if mask&fFlag != 0 {
		b := byte(0)
		if m.Flag {
			b = 1
		}
		dst = append(dst, b)
	}
	if mask&fText != 0 {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Text)))
		dst = append(dst, m.Text...)
	}

	payload := len(dst) - payloadStart
	if payload > MaxPayload {
		return dst[:base], fmt.Errorf("%w: payload %d > %d", ErrTooLarge, payload, MaxPayload)
	}
	binary.BigEndian.PutUint32(dst[payloadStart-4:payloadStart], uint32(payload))
	return dst, nil
}

// check validates field caps before encoding.
func (m *Msg) check() error {
	switch {
	case len(m.List) > MaxListLen:
		return fmt.Errorf("%w: list %d > %d", ErrTooLarge, len(m.List), MaxListLen)
	case len(m.Recs) > MaxRecs:
		return fmt.Errorf("%w: recs %d > %d", ErrTooLarge, len(m.Recs), MaxRecs)
	case len(m.Metas) > MaxMetas:
		return fmt.Errorf("%w: metas %d > %d", ErrTooLarge, len(m.Metas), MaxMetas)
	case len(m.Tasks) > MaxTasks:
		return fmt.Errorf("%w: tasks %d > %d", ErrTooLarge, len(m.Tasks), MaxTasks)
	case len(m.Value) > MaxValueLen:
		return fmt.Errorf("%w: value %d > %d", ErrTooLarge, len(m.Value), MaxValueLen)
	case len(m.Text) > MaxTextLen:
		return fmt.Errorf("%w: text %d > %d", ErrTooLarge, len(m.Text), MaxTextLen)
	case len(m.From.Addr) > MaxAddrLen || len(m.Node.Addr) > MaxAddrLen:
		return fmt.Errorf("%w: addr > %d", ErrTooLarge, MaxAddrLen)
	}
	for _, r := range m.List {
		if len(r.Addr) > MaxAddrLen {
			return fmt.Errorf("%w: addr > %d", ErrTooLarge, MaxAddrLen)
		}
	}
	for _, rec := range m.Recs {
		if len(rec.Value) > MaxValueLen {
			return fmt.Errorf("%w: rec value %d > %d", ErrTooLarge, len(rec.Value), MaxValueLen)
		}
	}
	return nil
}

func appendRef(dst []byte, r NodeRef) []byte {
	dst = append(dst, r.ID[:]...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Addr)))
	return append(dst, r.Addr...)
}

// reader walks one payload with bounds checks; all take methods return
// ErrTruncated once the payload is exhausted.
type reader struct {
	b   []byte
	off int
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrTruncated
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) takeID() (ids.ID, error) {
	b, err := r.take(ids.Bytes)
	if err != nil {
		return ids.Zero, err
	}
	return ids.FromBytes(b), nil
}

func (r *reader) takeU16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) takeU32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) takeU64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// takeBytes reads a u32 length then that many bytes, enforcing cap,
// into dst's capacity. A zero length reads as nil. The bytes are
// copied, so the result never aliases the payload buffer.
func (r *reader) takeBytes(dst []byte, cap int) ([]byte, error) {
	n, err := r.takeU32()
	if err != nil {
		return nil, err
	}
	if int(n) > cap {
		return nil, fmt.Errorf("%w: bytes %d > %d", ErrTooLarge, n, cap)
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return append(dst[:0], b...), nil
}

// takeRef reads a NodeRef into ref. Its address shares the string of
// an equal address in ref, among also or in pool (the comparisons do
// not allocate), so a peer's address is allocated once, not once per
// frame, list position or frame type.
func (r *reader) takeRef(ref *NodeRef, pool []NodeRef, also ...string) error {
	var err error
	if ref.ID, err = r.takeID(); err != nil {
		return err
	}
	n, err := r.takeU16()
	if err != nil {
		return err
	}
	if int(n) > MaxAddrLen {
		return fmt.Errorf("%w: addr %d > %d", ErrTooLarge, n, MaxAddrLen)
	}
	b, err := r.take(int(n))
	if err != nil {
		return err
	}
	if string(b) == ref.Addr {
		return nil
	}
	for _, a := range also {
		if a == string(b) {
			ref.Addr = a
			return nil
		}
	}
	for i := range pool {
		if pool[i].Addr == string(b) {
			ref.Addr = pool[i].Addr
			return nil
		}
	}
	ref.Addr = string(b)
	return nil
}

// count reads a u16 element count, enforcing both the type cap and the
// structural lower bound: count*minElemSize must fit in the remaining
// payload, so a tiny frame can never cause a large allocation.
func (r *reader) count(cap, minElemSize int) (int, error) {
	n16, err := r.takeU16()
	if err != nil {
		return 0, err
	}
	n := int(n16)
	if n > cap {
		return 0, fmt.Errorf("%w: count %d > %d", ErrTooLarge, n, cap)
	}
	if n*minElemSize > r.remaining() {
		return 0, ErrTruncated
	}
	return n, nil
}

// Decode parses one complete frame into a new Msg. It returns the
// message, the number of bytes consumed, and an error for any malformed
// input; it never panics and never allocates more than the frame's own
// length in aggregate element storage. The message shares no memory
// with b. It is a new Msg plus the decoder (*Conn).ReadMsg runs.
func Decode(b []byte) (*Msg, int, error) {
	m := new(Msg)
	n, err := m.decode(b)
	if err != nil {
		return nil, 0, err
	}
	return m, n, nil
}

// resize returns s with length n, reusing its capacity. Elements s held
// past n are zeroed, so a shorter frame pins none of a longer one's
// values and every element past len is zero.
func resize[S ~[]E, E any](s S, n int) S {
	if n > cap(s) {
		return make(S, n)
	}
	if n < len(s) {
		clear(s[n:])
	}
	return s[:n]
}

// keep is resize for a field whose elements own heap memory (List's
// addresses, Recs' value buffers), which it keeps for the next frame;
// *kept counts the elements past len that hold an earlier frame's
// values. A frame that carries the field (has) gets back, as stale, the
// elements past n that still hold values: the caller zeroes them once
// it has decoded the new elements (a list first reuses their
// addresses), so a shorter frame pins none of a longer one's values. A
// frame that lacks the field leaves s empty and its elements kept past
// len, for the next frame that carries the field to decode into: a
// TGetPredOK between two TSuccListOKs, or a TNotify between two
// TReplicates, then costs neither list's addresses nor the records'
// value buffers. What s keeps past len is therefore the elements one
// earlier frame decoded, bounded by the largest frame the Msg decoded
// (at most MaxPayload); a reused Rec value may keep the larger capacity
// an earlier value in its slot grew it to, which ReadMsg's shed bounds.
func keep[S ~[]E, E any](s S, n int, has bool, kept *int) (out, stale S) {
	held := len(withKept(s, *kept))
	if !has {
		*kept = held
		return s[:0], nil
	}
	*kept = 0
	if n > cap(s) {
		out = make(S, n)
		copy(out, s[:held])
		return out, nil
	}
	if n < held {
		stale = s[n:held]
	}
	return s[:n], stale
}

// withKept returns s extended over the kept elements past its len.
func withKept[S ~[]E, E any](s S, kept int) S {
	return s[:min(len(s)+kept, cap(s))]
}

// decode parses one complete frame into m. Every field the frame's type
// carries is refilled in place: slices (each Rec.Value included) into
// their existing capacity, and a string kept when the new bytes equal
// it or another address the Msg holds. Every other field is reset, a
// slice's elements and a ref's address kept for reuse (see keep and
// takeRef). Nothing aliases b. On error m's contents are unspecified.
func (m *Msg) decode(b []byte) (int, error) {
	if len(b) < HeaderLen {
		return 0, ErrTruncated
	}
	if b[0] != 'C' || b[1] != 'B' {
		return 0, ErrBadMagic
	}
	if b[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, b[2])
	}
	t := Type(b[3])
	if !t.Valid() {
		return 0, fmt.Errorf("%w: %d", ErrBadType, b[3])
	}
	plen := binary.BigEndian.Uint32(b[12:16])
	if plen > MaxPayload {
		return 0, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, plen, MaxPayload)
	}
	total := HeaderLen + int(plen)
	if len(b) < total {
		return 0, ErrTruncated
	}
	m.Type, m.Req = t, binary.BigEndian.Uint64(b[4:12])
	r := reader{b: b[HeaderLen:total]}
	mask := fieldsOf[t]
	var err error
	m.Key, m.Key2 = ids.Zero, ids.Zero
	if mask&fKey != 0 {
		if m.Key, err = r.takeID(); err != nil {
			return 0, err
		}
	}
	if mask&fKey2 != 0 {
		if m.Key2, err = r.takeID(); err != nil {
			return 0, err
		}
	}
	for _, ref := range [2]struct {
		bit  uint16
		p    *NodeRef
		kept *string
	}{{fFrom, &m.From, &m.kept.from}, {fNode, &m.Node, &m.kept.node}} {
		if ref.p.Addr != "" {
			*ref.kept = ref.p.Addr
		}
		*ref.p = NodeRef{}
		if mask&ref.bit == 0 {
			continue
		}
		if err = r.takeRef(ref.p, withKept(m.List, m.kept.list), m.kept.from, m.kept.node); err != nil {
			return 0, err
		}
	}
	n := 0
	if mask&fList != 0 {
		if n, err = r.count(MaxListLen, ids.Bytes+2); err != nil {
			return 0, err
		}
	}
	var stale []NodeRef
	m.List, stale = keep(m.List, n, mask&fList != 0, &m.kept.list)
	for i := range m.List {
		if err = r.takeRef(&m.List[i], m.List[:n+len(stale)], m.kept.from, m.kept.node); err != nil {
			clear(stale)
			return 0, err
		}
	}
	clear(stale)
	n = 0
	if mask&fRecs != 0 {
		if n, err = r.count(MaxRecs, ids.Bytes+8+4); err != nil {
			return 0, err
		}
	}
	var staleRecs []Rec
	m.Recs, staleRecs = keep(m.Recs, n, mask&fRecs != 0, &m.kept.recs)
	clear(staleRecs)
	for i := range m.Recs {
		rec := &m.Recs[i]
		if rec.Key, err = r.takeID(); err != nil {
			return 0, err
		}
		if rec.Ver, err = r.takeU64(); err != nil {
			return 0, err
		}
		if rec.Value, err = r.takeBytes(rec.Value, MaxValueLen); err != nil {
			return 0, err
		}
	}
	n = 0
	if mask&fTasks != 0 {
		if n, err = r.count(MaxTasks, ids.Bytes+8); err != nil {
			return 0, err
		}
	}
	m.Tasks = resize(m.Tasks, n)
	for i := range m.Tasks {
		if m.Tasks[i].Key, err = r.takeID(); err != nil {
			return 0, err
		}
		if m.Tasks[i].Units, err = r.takeU64(); err != nil {
			return 0, err
		}
	}
	n = 0
	if mask&fMetas != 0 {
		if n, err = r.count(MaxMetas, ids.Bytes+8+SumLen); err != nil {
			return 0, err
		}
	}
	m.Metas = resize(m.Metas, n)
	for i := range m.Metas {
		if m.Metas[i].Key, err = r.takeID(); err != nil {
			return 0, err
		}
		if m.Metas[i].Ver, err = r.takeU64(); err != nil {
			return 0, err
		}
		sum, err := r.take(SumLen)
		if err != nil {
			return 0, err
		}
		copy(m.Metas[i].Sum[:], sum)
	}
	if mask&fValue == 0 {
		m.Value = m.Value[:0]
	} else if m.Value, err = r.takeBytes(m.Value, MaxValueLen); err != nil {
		return 0, err
	}
	for _, slot := range [3]struct {
		bit uint16
		p   *uint64
	}{{fA, &m.A}, {fB, &m.B}, {fC, &m.C}} {
		*slot.p = 0
		if mask&slot.bit != 0 {
			if *slot.p, err = r.takeU64(); err != nil {
				return 0, err
			}
		}
	}
	m.Flag = false
	if mask&fFlag != 0 {
		b, err := r.take(1)
		if err != nil {
			return 0, err
		}
		if b[0] > 1 {
			return 0, fmt.Errorf("wire: flag byte %d not 0/1", b[0])
		}
		m.Flag = b[0] == 1
	}
	if mask&fText == 0 {
		m.Text = ""
	} else {
		n, err := r.count(MaxTextLen, 1)
		if err != nil {
			return 0, err
		}
		tb, err := r.take(n)
		if err != nil {
			return 0, err
		}
		if string(tb) != m.Text {
			m.Text = string(tb)
		}
	}
	if r.remaining() != 0 {
		return 0, fmt.Errorf("%w: %d bytes", ErrTrailing, r.remaining())
	}
	return total, nil
}
