package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/price"
)

func TestEmbeddedCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 25 {
		t.Fatalf("lines = %d, want header + 24", len(lines))
	}
	if lines[0] != "hour,michigan,minnesota,wisconsin" {
		t.Fatalf("header = %s", lines[0])
	}
	// Hour 6 row carries the Table III anchors.
	if !strings.HasPrefix(lines[7], "6,43.26,30.26,19.06") {
		t.Fatalf("hour 6 row = %s", lines[7])
	}
}

func TestSingleRegion(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-region", "wisconsin", "-hours", "2"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "hour,wisconsin" || len(lines) != 3 {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestUnknownRegion(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-region", "mars"}, &buf); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestStochasticDeterministic(t *testing.T) {
	mk := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-stochastic", "-seed", "3", "-hours", "6"}, &buf); err != nil {
			t.Fatalf("run: %v", err)
		}
		return buf.String()
	}
	if mk() != mk() {
		t.Fatal("stochastic output not reproducible under fixed seed")
	}
}

// TestStochasticNonFiniteFails pins that a bad model setting fails the run
// (exit 1) instead of printing NaN or ±Inf prices, or, for -sigma NaN,
// the noise-free series, and that the failed run prints nothing: -sigma
// 1e308 fails only at hour 1, after hour 0's row was computed.
func TestStochasticNonFiniteFails(t *testing.T) {
	for _, args := range [][]string{
		{"-load", "NaN"},
		{"-sensitivity", "Inf"},
		{"-sigma", "1e308"},
		{"-sigma", "NaN"},
	} {
		var buf bytes.Buffer
		err := run(append([]string{"-stochastic", "-hours", "3"}, args...), &buf)
		if !errors.Is(err, price.ErrNonFinite) {
			t.Errorf("%v: error %v, want price.ErrNonFinite; output:\n%s", args, err, buf.String())
		}
		if buf.Len() != 0 {
			t.Errorf("%v: failed run printed %q, want no output", args, buf.String())
		}
	}
}

func TestVolatility(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-volatility"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "wisconsin,") {
		t.Fatalf("row order: %v", lines)
	}
}
