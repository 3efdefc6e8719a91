package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunOneSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := experiments.Config{Scale: 1500, Seed: 1, Workers: 2}
	if _, err := runOne(&out, "table3,fig4", cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[4], "| table3 |") || !strings.HasPrefix(lines[5], "| fig4 |") {
		t.Fatalf("want a header, the table head and rows table3 and fig4; got\n%s", out.String())
	}
}

func TestRunOneUnknown(t *testing.T) {
	if _, err := runOne(&bytes.Buffer{}, "table3,nope", experiments.Config{Scale: 100}); err == nil {
		t.Fatal("unknown row accepted")
	}
}
