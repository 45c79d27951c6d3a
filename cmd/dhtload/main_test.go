package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStreamVirtualDeterministic runs the virtual streaming workload
// twice with the same seed and requires byte-identical JSON summaries —
// the reproducibility contract experiments and CI diffs rest on — and a
// different seed to produce a different summary.
func TestStreamVirtualDeterministic(t *testing.T) {
	args := func(seed string) []string {
		return []string{
			"-stream-virtual", "-json", "-seed", seed,
			"-viewers", "4", "-objects", "8", "-object-chunks", "16",
			"-chunk-bytes", "64", "-tail-bytes", "17", "-chunk-dur", "1ms",
			"-zipf", "0.9", "-midjoin-prob", "0.25", "-stream-chunks", "500",
			"-stream-slo", "3ms", "-hot-bits", "4",
			"-virtual-latency", "500us", "-virtual-jitter", "2ms", "-virtual-loss", "0.05",
		}
	}
	var a, b, c bytes.Buffer
	if err := run(args("9"), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args("9"), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed -stream-virtual summaries differ:\n%s\n---\n%s", a.String(), b.String())
	}
	if err := run(args("10"), &c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different seeds produced identical summaries; the seed is not flowing")
	}
	for _, field := range []string{`"mode": "stream-virtual"`, `"rebuffer_rate"`, `"fetch_p99_us"`, `"verify_lost"`} {
		if !strings.Contains(a.String(), field) {
			t.Fatalf("summary missing %s:\n%s", field, a.String())
		}
	}
}

// TestStreamVirtualTextOutput exercises the human-readable path.
func TestStreamVirtualTextOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-stream-virtual", "-seed", "3", "-viewers", "2", "-objects", "4",
		"-object-chunks", "8", "-chunk-bytes", "32", "-chunk-dur", "1ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stream-virtual", "rebuffer-rate=", "fetch-us p50="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadFlags pins the flag validation paths.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-hot-bits", "-1"}, &out); err == nil {
		t.Fatal("negative -hot-bits accepted")
	}
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing -addr accepted")
	}
	if err := run([]string{"-stream"}, &out); err == nil {
		t.Fatal("-stream without -addr accepted")
	}
	// Rejected before the ping, so the unreachable address never
	// matters: the error must name the flag.
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-rps", []string{"-addr", "127.0.0.1:1", "-rps", "0"}},
		{"-rps", []string{"-addr", "127.0.0.1:1", "-rps", "-5"}},
		{"-value-len", []string{"-addr", "127.0.0.1:1", "-value-len", "-1"}},
	} {
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run %v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}
