package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chordbalance/internal/strategy"
)

// TestRunEveryStrategy boots a small ring under every name
// strategy.ByName accepts and reads the summary back.
func TestRunEveryStrategy(t *testing.T) {
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			args := []string{"-nodes", "4", "-duration", "300ms", "-json", "-strategy", name}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			s := out.String()
			start := strings.IndexByte(s, '{')
			if start < 0 {
				t.Fatalf("no JSON summary in:\n%s", s)
			}
			var sum summary
			if err := json.Unmarshal([]byte(s[start:]), &sum); err != nil {
				t.Fatalf("summary: %v\n%s", err, s)
			}
			if sum.Strategy != name || sum.Hosts != 4 {
				t.Errorf("summary names strategy %q over %d hosts, want %q over 4", sum.Strategy, sum.Hosts, name)
			}
		})
	}
}

// TestRunUnknownStrategy fails before anything is opened: not the trace
// file, which is created ahead of every listener.
func TestRunUnknownStrategy(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	var out strings.Builder
	err := run([]string{"-nodes", "4", "-duration", "300ms", "-strategy", "bogus", "-trace", trace}, &out)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want an unknown-strategy error", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed before failing: %q", out.String())
	}
	if _, statErr := os.Stat(trace); !os.IsNotExist(statErr) {
		t.Errorf("trace file opened before the strategy was checked (stat: %v)", statErr)
	}
}
