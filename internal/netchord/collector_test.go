package netchord

import (
	"testing"

	"chordbalance/internal/ids"
	"chordbalance/internal/wire"
)

// reportMsg is the TReport a sender with cumulative counters s pushes.
func reportMsg(from ids.ID, s wire.Stats) *wire.Msg {
	return &wire.Msg{Type: wire.TReport, From: wire.NodeRef{ID: from}, Value: wire.AppendStats(nil, &s)}
}

// TestCollectorReportRule pins how the collector folds reports into its
// cluster view: the last report per sender counts, fields sum except
// BusyTicks (the maximum), and a blob that does not decode is refused
// without touching the state.
func TestCollectorReportRule(t *testing.T) {
	a, b, client := ids.FromUint64(1), ids.FromUint64(2), ids.FromUint64(3)
	valid := reportMsg(a, wire.Stats{Hosts: 1, Consumed: 4})
	truncated := &wire.Msg{Type: wire.TReport, From: wire.NodeRef{ID: a}, Value: valid.Value[:wire.StatsLen-1]}
	future := &wire.Msg{Type: wire.TReport, From: wire.NodeRef{ID: a}, Value: append([]byte(nil), valid.Value...)}
	future.Value[0] = wire.StatsVersion + 1

	cases := []struct {
		name   string
		seq    []*wire.Msg
		refuse int // index of the one report to be refused, -1 = none
		want   wire.Stats
	}{
		{
			name: "repeated report overwrites",
			seq: []*wire.Msg{
				reportMsg(a, wire.Stats{Hosts: 1, Capacity: 2, Consumed: 10, Residual: 5, StoreAcked: 3}),
				reportMsg(a, wire.Stats{Hosts: 1, Capacity: 2, Consumed: 12, Residual: 1, StoreAcked: 4}),
			},
			refuse: -1,
			want:   wire.Stats{Hosts: 1, Capacity: 2, Consumed: 12, Residual: 1, StoreAcked: 4, Reports: 2},
		},
		{
			name: "busy ticks is the slowest host",
			seq: []*wire.Msg{
				reportMsg(a, wire.Stats{Hosts: 1, BusyTicks: 7, Injections: 1, InjectedUnits: 9}),
				reportMsg(b, wire.Stats{Hosts: 1, BusyTicks: 30, Injections: 2, InjectedUnits: 1}),
			},
			refuse: -1,
			want:   wire.Stats{Hosts: 2, BusyTicks: 30, Injections: 3, InjectedUnits: 10, Reports: 2},
		},
		{
			name: "stream client is no host",
			seq: []*wire.Msg{
				reportMsg(a, wire.Stats{Hosts: 1, Capacity: 1}),
				reportMsg(client, wire.Stats{StreamChunks: 8, StreamBytes: 800}),
			},
			refuse: -1,
			want:   wire.Stats{Hosts: 1, Capacity: 1, StreamChunks: 8, StreamBytes: 800, Reports: 2},
		},
		{
			name:   "truncated blob refused",
			seq:    []*wire.Msg{valid, truncated},
			refuse: 1,
			want:   wire.Stats{Hosts: 1, Consumed: 4, Reports: 1},
		},
		{
			name:   "wrong stats version refused",
			seq:    []*wire.Msg{valid, future},
			refuse: 1,
			want:   wire.Stats{Hosts: 1, Consumed: 4, Reports: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCollector(testConfig(), NewPipeTransport(), "", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i, m := range tc.seq {
				before := c.Stats()
				reply := answer(c.handle, m)
				if i != tc.refuse {
					if reply.Type != wire.TAck {
						t.Fatalf("report %d: reply %v %q, want ack", i, reply.Type, reply.Text)
					}
					continue
				}
				if reply.Type != wire.TError || reply.A != CodeBadRequest {
					t.Fatalf("report %d: reply %v code %d, want error code %d", i, reply.Type, reply.A, CodeBadRequest)
				}
				if after := c.Stats(); after != before {
					t.Fatalf("refused report changed the state:\nbefore: %+v\nafter:  %+v", before, after)
				}
			}
			if got := c.Stats(); got != tc.want {
				t.Fatalf("cluster view:\ngot:  %+v\nwant: %+v", got, tc.want)
			}
		})
	}
}
