package netchord

import "testing"

// TestCollectorStreamReports exercises the streaming read-path metrics
// end to end over the wire: clients push cumulative TReports (overwrite
// semantics, several clients aggregate), and TStats returns the summed
// blob.
func TestCollectorStreamReports(t *testing.T) {
	tr := NewPipeTransport()
	cfg := Config{}.WithDefaults()
	col, err := NewCollector(cfg, tr, "collector", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	a := NewClient(cfg, tr, "unused", 1)
	defer a.Close()
	b := NewClient(cfg, tr, "unused", 2)
	defer b.Close()
	if a.ID() == b.ID() {
		t.Fatal("distinct seeds produced the same client identity")
	}

	// Cumulative reports overwrite: the second report from client a
	// replaces the first rather than adding to it.
	if err := a.ReportStream(col.Addr(), 10, 1, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if err := a.ReportStream(col.Addr(), 25, 2, 1, 2500); err != nil {
		t.Fatal(err)
	}
	if err := b.ReportStream(col.Addr(), 5, 0, 0, 500); err != nil {
		t.Fatal(err)
	}

	p := col.Stats()
	if p.StreamChunks != 30 || p.StreamDeadlineMiss != 2 || p.StreamRebuffers != 1 || p.StreamBytes != 3000 {
		t.Fatalf("aggregated stream counters wrong: %+v", p)
	}

	// The wire view must agree with the in-process view field for field.
	got, err := FetchStats(tr, cfg, col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("FetchStats disagrees with Collector.Stats: got %+v want %+v", got, p)
	}

	// Pin the read-work default: zero, reads stay free unless asked.
	if cfg.ReadWorkUnits != 0 {
		t.Fatalf("ReadWorkUnits default must be 0, got %d", cfg.ReadWorkUnits)
	}
}
