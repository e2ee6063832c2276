package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsDocIsCurrent renders the default report exactly as
// `flexsfp-bench` prints it and requires docs/RESULTS.txt to match, so a
// change that moves any reported number must regenerate the document
// (`make reports`) in the same commit.
func TestResultsDocIsCurrent(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(nil, &out, &errs); code != 0 {
		t.Fatalf("flexsfp-bench exited %d: %s", code, errs.String())
	}
	path := filepath.Join("..", "..", "docs", "RESULTS.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, doc := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(doc); i++ {
		var g, d string
		if i < len(got) {
			g = got[i]
		}
		if i < len(doc) {
			d = doc[i]
		}
		if g != d {
			t.Fatalf("%s is stale (regenerate with `make reports`); first difference at line %d:\n  doc: %q\n  run: %q", path, i+1, d, g)
		}
	}
}

// TestRunRejectsBadArgs: flag and selection errors keep exit status 2.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-run", "no-such-experiment"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
