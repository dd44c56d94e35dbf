package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []string{"4", "5", "6", "7"} {
		fig := fig
		t.Run("fig"+fig, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, fig, "table", 1, 7); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "Fig. "+fig) {
				t.Errorf("output missing title:\n%s", buf.String())
			}
		})
	}
}

func TestRunFormats(t *testing.T) {
	for _, format := range []string{"table", "csv", "plot"} {
		var buf bytes.Buffer
		if err := run(&buf, "6", format, 1, 7); err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %s produced nothing", format)
		}
	}
	var buf bytes.Buffer
	if err := run(&buf, "6", "nope", 1, 7); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "99", "table", 1, 7); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunExtra(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "extra", "table", 1, 7); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"workload key:", "reveal order", "threshold sweep", "histogram"} {
		if !strings.Contains(out, want) {
			t.Errorf("extra output missing %q", want)
		}
	}
}

func TestRunAllCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", "csv", 1, 7); err != nil {
		t.Fatal(err)
	}
	// Every CSV block starts with the density or node header.
	if got := strings.Count(buf.String(), "density,"); got < 3 {
		t.Errorf("expected at least 3 density CSV headers, got %d", got)
	}
}
