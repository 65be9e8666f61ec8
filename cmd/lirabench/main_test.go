package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSet pins the binary's surface: the §4 driver's seven flags plus
// the measured comparison's two. A timing mode re-added behind a flag
// fails here (timings belong to `go run ./bench`).
func TestFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("lirabench", flag.ContinueOnError)
	bindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{"duration", "exp", "expshards", "nodes", "parallel", "policy", "policyjson", "scale", "seed"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v, want %v", got, want)
	}
}

func TestParseExpsAccepts(t *testing.T) {
	all, err := parseExps("all")
	if err != nil {
		t.Fatal(err)
	}
	ids := expIDs()
	if len(ids) != 14 || len(all) != len(ids) {
		t.Fatalf("all selects %d of %d ids, want 14 of 14", len(all), len(ids))
	}
	for _, id := range ids {
		if !all[id] {
			t.Errorf("all does not select %s", id)
		}
	}

	mixed, err := parseExps("fig5, table3 ,fig14")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"fig5": true, "table3": true, "fig14": true}; !reflect.DeepEqual(mixed, want) {
		t.Fatalf("mixed list selects %v, want %v", mixed, want)
	}
}

func TestParseExpsRejectsUnknown(t *testing.T) {
	for _, c := range []struct{ list, bad string }{
		{"figX", "figX"}, {"fig2", "fig2"}, {"fig4, figX", "figX"}, {"fig4,", ""}, {"", ""}, {"ALL", "ALL"},
	} {
		_, err := parseExps(c.list)
		if err == nil {
			t.Errorf("parseExps(%q) accepted", c.list)
			continue
		}
		for _, want := range []string{`"` + c.bad + `"`, "fig1,fig3,fig4", "table3 or all"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("parseExps(%q) error %q lacks %q", c.list, err, want)
			}
		}
	}
}

// TestRunRejectsUnknownBeforeWork drives the whole command: a bad id is
// an error from run (exit 1 in main) in both modes, returned before the
// environment build or any simulation starts.
func TestRunRejectsUnknownBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "figX"},
		{"-exp", "fig9,figX", "-scale", "paper"},
		{"-policy", "-exp", "figX"},
	} {
		if err := run(args); err == nil || !strings.Contains(err.Error(), `"figX"`) {
			t.Errorf("run(%v) = %v, want unknown-id error", args, err)
		}
	}
	if err := run([]string{"-scale", "huge"}); err == nil || !strings.Contains(err.Error(), "huge") {
		t.Errorf("run(-scale huge) = %v, want unknown-scale error", err)
	}
}
