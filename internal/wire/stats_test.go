package wire

import (
	"errors"
	"testing"
)

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		Hosts: 1, Consumed: 2, Residual: 3, BusyTicks: 4,
		Capacity: 5, Injections: 6, InjectedUnits: 7, Reports: 8,
		StoreAcked: 9, AntiEntropyRounds: 10, AntiEntropyRepairs: 11, AntiEntropyBytes: 12,
		StreamChunks: 13, StreamDeadlineMiss: 14, StreamRebuffers: 15, StreamBytes: 16,
	}
	blob := AppendStats(nil, &in)
	if len(blob) != StatsLen {
		t.Fatalf("blob length %d, want %d", len(blob), StatsLen)
	}
	out, err := DecodeStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestStatsRoundTripThroughMsg(t *testing.T) {
	in := Stats{Hosts: 12, Consumed: 1 << 40, StreamChunks: 1_000_000, StreamBytes: 1 << 50}
	frame, err := Append(nil, &Msg{Type: TStatsOK, Req: 7, Value: AppendStats(nil, &in)})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStats(m.Value)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip through TStatsOK mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecodeStatsRejectsMalformed(t *testing.T) {
	if _, err := DecodeStats(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty blob: err = %v, want ErrTruncated", err)
	}
	blob := AppendStats(nil, &Stats{Hosts: 3})
	if _, err := DecodeStats(blob[:len(blob)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short blob: err = %v, want ErrTruncated", err)
	}
	if _, err := DecodeStats(append(blob, 0)); !errors.Is(err, ErrTruncated) {
		t.Errorf("long blob: err = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = StatsVersion + 1
	if _, err := DecodeStats(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("future layout: err = %v, want ErrBadVersion", err)
	}
}
