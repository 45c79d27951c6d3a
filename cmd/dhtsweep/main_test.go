package main

import (
	"io"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"table1", "table2", "random", "invitation",
		"ablation-consume", "extensions", "chord-hops", "arcs"} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestRunArcsText(t *testing.T) {
	var out, log strings.Builder
	if err := run([]string{"-exp", "arcs", "-trials", "1"}, &out, &log); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "Arc-length analysis") || !strings.Contains(s, "sha1") {
		t.Errorf("arcs output wrong:\n%s", s)
	}
	if !strings.Contains(log.String(), "(arcs in ") {
		t.Error("missing timing footer")
	}
	if strings.Contains(s, "(arcs in ") {
		t.Error("timing footer must not reach the results stream")
	}
}

func TestRunArcsCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "arcs", "-trials", "1", "-csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "placement,nodes,") {
		t.Errorf("CSV output wrong:\n%s", out.String())
	}
}

func TestRunChordHops(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "chord-hops", "-trials", "20"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "mean hops") {
		t.Errorf("hops output wrong:\n%s", out.String())
	}
}
