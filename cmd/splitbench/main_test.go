package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestSnapshotStampsGOMAXPROCS checks that a snapshot records the
// GOMAXPROCS the run used next to the host's CPU count, not in its place.
func TestSnapshotStampsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	snap := newSnapshot("EVAL", nil)
	if snap.GOMAXPROCS != 1 || snap.NumCPU != runtime.NumCPU() {
		t.Fatalf("stamp gomaxprocs=%d num_cpu=%d, want 1 and %d", snap.GOMAXPROCS, snap.NumCPU, runtime.NumCPU())
	}
	out, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(out, &fields); err != nil {
		t.Fatal(err)
	}
	if fields["gomaxprocs"] != 1.0 || fields["num_cpu"] != float64(runtime.NumCPU()) {
		t.Fatalf("snapshot JSON lacks the stamp fields: %s", out)
	}
}

func TestResolveExperiment(t *testing.T) {
	exps, order := experiments()
	if len(exps) != len(order) {
		t.Fatalf("registry has %d experiments but order lists %d", len(exps), len(order))
	}
	for _, id := range order {
		if _, ok := exps[id]; !ok {
			t.Fatalf("order entry %q missing from the registry", id)
		}
		mixed := strings.ToLower(id[:1]) + id[1:] // e.g. "eVAL", "pREFILTER"
		for _, name := range []string{id, strings.ToLower(id), mixed} {
			run, err := resolveExperiment(name, exps, order)
			if err != nil || run == nil {
				t.Fatalf("resolveExperiment(%q) = %v, want the %s experiment", name, err, id)
			}
		}
	}
	for _, bad := range []string{"", "EVALX", "bogus", "PRE FILTER", "all "} {
		run, err := resolveExperiment(bad, exps, order)
		if err == nil || run != nil {
			t.Fatalf("resolveExperiment(%q) must be a hard error", bad)
		}
		msg := err.Error()
		if !strings.Contains(msg, "valid experiments are") {
			t.Fatalf("error for %q must list the valid experiments, got: %s", bad, msg)
		}
		for _, id := range order {
			if !strings.Contains(msg, id) {
				t.Fatalf("error for %q omits experiment %s: %s", bad, id, msg)
			}
		}
	}
}
