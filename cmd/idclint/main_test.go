package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, want 0; stderr: %s", code, errOut.String())
	}
	for _, name := range []string{
		"aliasing", "hotalloc", "floateq", "nocopy",
		"goleak", "locksafe", "ctxflow", "atomicmix", "maporder",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerIsOperationalError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", errOut.String())
	}
}

func TestUnknownDisableIsOperationalError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-disable", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-disable nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", errOut.String())
	}
}

func TestOnlyAndDisableAreExclusive(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-only", "floateq", "-disable", "nocopy"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-only -disable) = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Errorf("stderr missing explanation: %s", errOut.String())
	}
}

func TestBadFlagIsOperationalError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("run(-nope) = %d, want 2", code)
	}
}

func TestUnmatchedPatternIsOperationalError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./does/not/exist"}, &out, &errOut); code != 2 {
		t.Fatalf("run(./does/not/exist) = %d, want 2; stdout: %s", code, out.String())
	}
}

// TestFindingsExitOne runs the CLI against the lint fixture module, which
// is built to contain violations.
func TestFindingsExitOne(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join(wd, "..", "..", "internal", "lint", "testdata", "src")
	if err := os.Chdir(fixtures); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var out, errOut strings.Builder
	if code := run([]string{"-only", "floateq", "./floateq"}, &out, &errOut); code != 1 {
		t.Fatalf("run on fixture = %d, want 1; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[floateq]") {
		t.Errorf("stdout missing formatted finding:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "finding(s)") {
		t.Errorf("stderr missing summary: %s", errOut.String())
	}
}

// TestJSONOutput checks the -json projection parses and carries the same
// findings the text form reports, still with exit status 1.
func TestJSONOutput(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join(wd, "..", "..", "internal", "lint", "testdata", "src")
	if err := os.Chdir(fixtures); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var out, errOut strings.Builder
	if code := run([]string{"-json", "-only", "floateq", "./floateq"}, &out, &errOut); code != 1 {
		t.Fatalf("run -json on fixture = %d, want 1; stderr: %s", code, errOut.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json output has no findings")
	}
	for _, f := range findings {
		if f.Analyzer != "floateq" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

// TestDisableSkipsAnalyzer checks -disable removes exactly the named
// analyzer: the floateq fixture is clean once floateq itself is off.
func TestDisableSkipsAnalyzer(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join(wd, "..", "..", "internal", "lint", "testdata", "src")
	if err := os.Chdir(fixtures); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var out, errOut strings.Builder
	if code := run([]string{"-disable", "floateq", "./floateq"}, &out, &errOut); code != 0 {
		t.Fatalf("run -disable floateq = %d, want 0; stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
}
