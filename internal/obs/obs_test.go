package obs

import (
	"strings"
	"testing"

	"chordbalance/internal/stats"
)

func TestRegistrySortedAndIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Gauge("z.last", "", "")
	r.Counter("a.first", "", "")
	r.Counter("m.middle", "", "")
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	// Idempotent re-registration returns the same underlying metric.
	c1 := r.Counter("a.first", "", "")
	c1.Add(7)
	c2 := r.Counter("a.first", "", "")
	if c2.Value() != 7 {
		t.Fatalf("re-registered counter lost its value: %d", c2.Value())
	}
	if r.Len() != 3 {
		t.Fatalf("re-registration grew the registry to %d", r.Len())
	}
	var names []string
	for _, m := range r.ordered {
		names = append(names, m.name)
	}
	want := []string{"a.first", "m.middle", "z.last"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ordered = %v, want %v", names, want)
		}
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wl", "tasks", "", []float64{1, 10, 100})
	for _, x := range []float64{0, 0.5, 1, 5, 9.999, 10, 99, 100, 1e6} {
		h.Observe(x)
	}
	got := h.Counts()
	want := []int64{2, 3, 2, 2} // <1, [1,10), [10,100), >=100
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	h.Reset()
	for _, c := range h.Counts() {
		if c != 0 {
			t.Fatalf("Reset left buckets %v", h.Counts())
		}
	}
}

func TestTickRecordRoundTrip(t *testing.T) {
	var sink MemSink
	tr := New(&sink)
	reg := tr.Registry()
	c := reg.Counter("sim.msgs.joins", "msgs", "join count")
	g := reg.Gauge("sim.workload.gini", "", "Gini coefficient")
	h := reg.Histogram("sim.workload.hosts", "tasks", "per-host residual work", []float64{1, 10})

	tr.EmitMeta(F{K: "seed", V: uint64(42)}, F{K: "strategy", V: "random"})
	tr.EmitSchema()
	c.Add(3)
	g.Set(0.25)
	h.ObserveInt(0)
	h.ObserveInt(5)
	tr.EmitTick(1)
	c.Add(1)
	tr.EmitTick(2)
	tr.Emit("done", F{K: "ticks", V: 2}, F{K: "completed", V: true})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadTrace(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["seed"].(float64) != 42 || got.Meta["strategy"].(string) != "random" {
		t.Fatalf("meta = %v", got.Meta)
	}
	if len(got.Schema) != 3 || got.Schema[0].Name != "sim.msgs.joins" || got.Schema[0].Type != "counter" {
		t.Fatalf("schema = %+v", got.Schema)
	}
	def, ok := got.Def("sim.workload.hosts")
	if !ok || len(def.Edges) != 2 {
		t.Fatalf("hist def = %+v, ok=%v", def, ok)
	}
	if len(got.Ticks) != 2 {
		t.Fatalf("ticks = %d, want 2", len(got.Ticks))
	}
	if got.Ticks[0].Counters["sim.msgs.joins"] != 3 || got.Ticks[1].Counters["sim.msgs.joins"] != 4 {
		t.Fatalf("counter series wrong: %+v", got.Ticks)
	}
	if got.Ticks[0].Gauges["sim.workload.gini"] != 0.25 {
		t.Fatalf("gauge = %v", got.Ticks[0].Gauges)
	}
	hist := got.Ticks[0].Hists["sim.workload.hosts"]
	if len(hist) != 3 || hist[0] != 1 || hist[1] != 1 {
		t.Fatalf("hist = %v", hist)
	}
	if got.Done["ticks"].(float64) != 2 || got.Done["completed"].(bool) != true {
		t.Fatalf("done = %v", got.Done)
	}
}

func TestTraceDeterminism(t *testing.T) {
	emit := func() string {
		var sink MemSink
		tr := New(&sink)
		c := tr.Registry().Counter("b.count", "", "")
		g := tr.Registry().Gauge("a.gauge", "", "")
		tr.EmitSchema()
		for i := 1; i <= 50; i++ {
			c.Add(int64(i))
			g.Set(float64(i) / 7)
			tr.EmitTick(i)
		}
		_ = tr.Close()
		return sink.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatal("identical emission sequences produced different bytes")
	}
}

func TestNilTracerIsInertAndAllocFree(t *testing.T) {
	var tr *Tracer
	if got := New(nil); got != nil {
		t.Fatal("New(nil) should return the nil (disabled) tracer")
	}
	if tr.Registry() != nil || tr.Err() != nil || tr.Close() != nil {
		t.Fatal("nil tracer accessors must be inert")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.EmitTick(3)
		tr.EmitMeta(F{K: "k", V: 1})
		tr.Emit("done")
		tr.EmitSchema()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %v per emit cycle, want 0", allocs)
	}
}

func TestEnabledTickSteadyStateAllocFree(t *testing.T) {
	tr := New(Discard{})
	c := tr.Registry().Counter("c", "", "")
	g := tr.Registry().Gauge("g", "", "")
	h := tr.Registry().Histogram("h", "", "", stats.LogEdges(1000, 3))
	tr.EmitTick(0) // warm the line buffer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(1.5)
		h.Reset()
		h.ObserveInt(7)
		tr.EmitTick(1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state EmitTick allocated %v per tick, want 0", allocs)
	}
}

func TestStringEscaping(t *testing.T) {
	var sink MemSink
	tr := New(&sink)
	tr.Emit("meta", F{K: "weird", V: "a\"b\\c\nd\x01"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatalf("escaped record did not round-trip: %v\nraw: %s", err, sink.String())
	}
	if got.Meta["weird"].(string) != "a\"b\\c\nd\x01" {
		t.Fatalf("round-trip mangled the string: %q", got.Meta["weird"])
	}
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"kind\":\"tick\",\"tick\":1\n")); err == nil {
		t.Fatal("truncated JSON line should be an error")
	}
}
