package wire

import (
	"encoding/binary"
	"fmt"
)

// Stats is one sender's cumulative counters as a TReport carries them,
// and the collector's cluster view as a TStatsOK reply carries it. The
// collector keeps the last Stats per sender; the cluster view is their
// field-wise sum, except BusyTicks, which is the maximum (the slowest
// host), and Reports, which the collector counts itself. The blob rides
// in the message's Value field with a fixed layout:
//
//	offset  size  field
//	0       1     stats layout version (StatsVersion)
//	1       16*8  the uint64 fields below, big endian, in struct order
//
// The layout is versioned independently of the frame format: adding a
// field appends eight bytes and bumps StatsVersion, and DecodeStats
// rejects versions it does not know, so a mixed-version cluster fails
// loudly instead of misreading counters.
type Stats struct {
	// Hosts is 1 in a host's report and 0 in a streaming client's, so
	// the sum counts reporting hosts.
	Hosts uint64 `json:"hosts"`
	// Consumed is the cumulative task units consumed.
	Consumed uint64 `json:"consumed"`
	// Residual is the residual task units at the last report.
	Residual uint64 `json:"residual"`
	// BusyTicks is a host's busy interval (last - first busy tick + 1,
	// 0 until work arrives).
	BusyTicks uint64 `json:"busy_ticks"`
	// Capacity is the per-tick consume capacity.
	Capacity uint64 `json:"capacity"`
	// Injections counts Sybil births.
	Injections uint64 `json:"injections"`
	// InjectedUnits sums the task units Sybils acquired at birth.
	InjectedUnits uint64 `json:"injected_units"`
	// Reports counts reports the collector accepted (0 in a sender's own
	// report).
	Reports uint64 `json:"reports"`
	// StoreAcked is the durably acknowledged owner writes.
	StoreAcked uint64 `json:"store_acked"`
	// AntiEntropyRounds is the anti-entropy passes started.
	AntiEntropyRounds uint64 `json:"anti_entropy_rounds"`
	// AntiEntropyRepairs is the records repaired by anti-entropy.
	AntiEntropyRepairs uint64 `json:"anti_entropy_repairs"`
	// AntiEntropyBytes is the value bytes anti-entropy moved.
	AntiEntropyBytes uint64 `json:"anti_entropy_bytes"`
	// StreamChunks is the chunks delivered to streaming viewers.
	StreamChunks uint64 `json:"stream_chunks"`
	// StreamDeadlineMiss is the chunk deadline misses.
	StreamDeadlineMiss uint64 `json:"stream_deadline_miss"`
	// StreamRebuffers is the viewer rebuffer events.
	StreamRebuffers uint64 `json:"stream_rebuffers"`
	// StreamBytes is the value bytes delivered to viewers.
	StreamBytes uint64 `json:"stream_bytes"`
}

// StatsVersion is the current Stats blob layout version.
const StatsVersion = 1

// statsFields is the number of uint64 fields in the version-1 layout.
const statsFields = 16

// StatsLen is the encoded length of a version-1 Stats blob.
const StatsLen = 1 + statsFields*8

// fieldList returns pointers to the blob's fields in layout order.
func (s *Stats) fieldList() [statsFields]*uint64 {
	return [statsFields]*uint64{
		&s.Hosts, &s.Consumed, &s.Residual, &s.BusyTicks,
		&s.Capacity, &s.Injections, &s.InjectedUnits, &s.Reports,
		&s.StoreAcked, &s.AntiEntropyRounds, &s.AntiEntropyRepairs, &s.AntiEntropyBytes,
		&s.StreamChunks, &s.StreamDeadlineMiss, &s.StreamRebuffers, &s.StreamBytes,
	}
}

// AppendStats encodes s, appending the versioned blob to dst.
func AppendStats(dst []byte, s *Stats) []byte {
	dst = append(dst, StatsVersion)
	for _, f := range s.fieldList() {
		dst = binary.BigEndian.AppendUint64(dst, *f)
	}
	return dst
}

// DecodeStats parses a blob produced by AppendStats. Like the frame
// decoder it never panics: a wrong version or length is an error.
func DecodeStats(b []byte) (Stats, error) {
	var s Stats
	if len(b) < 1 {
		return s, fmt.Errorf("%w: empty stats blob", ErrTruncated)
	}
	if b[0] != StatsVersion {
		return s, fmt.Errorf("%w: stats layout %d", ErrBadVersion, b[0])
	}
	if len(b) != StatsLen {
		return s, fmt.Errorf("%w: stats blob %d bytes, want %d", ErrTruncated, len(b), StatsLen)
	}
	off := 1
	for _, f := range s.fieldList() {
		*f = binary.BigEndian.Uint64(b[off : off+8])
		off += 8
	}
	return s, nil
}
