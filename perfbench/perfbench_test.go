package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// tiny is a small version of every workload, for the self-test.
func tiny(t *testing.T, workload string, seed int64, trace bool) config {
	cfg := defaults()
	cfg.workload, cfg.seed, cfg.trace = workload, seed, trace
	cfg.seconds = 0.3
	cfg.setups = 1
	cfg.fileSize = 2 << 20
	cfg.pieces = 4
	cfg.cycleOps = 16
	cfg.root = t.TempDir()
	if trace {
		cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	return cfg
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

var workloadNames = []string{"checkpoint", "small_update", "degraded"}

// Every declared metric is emitted, with its declared unit and nothing
// else, in both the untraced and the traced run, and the traced run
// writes its span file.
func TestEveryMetricEmittedWithUnit(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := tiny(t, wl, 1, trace)
			res := mustRun(t, cfg)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: not correct (%d of %d failed): %q", wl, trace, res.Failed, res.Attempted, res.notes)
			}
			want := declared(t, "end_to_end")
			if trace {
				want = declared(t, "per_layer")
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", wl, trace, got, want)
			}
			if trace {
				if st, err := os.Stat(cfg.spans); err != nil || st.Size() == 0 {
					t.Errorf("%s: span file not written: %v", wl, err)
				}
			}
		}
	}
}

// A byte flipped on its way to an iod's data store is caught: the run
// counts failures and would exit non-zero.
func TestOracleCatchesFlippedByte(t *testing.T) {
	for _, wl := range workloadNames {
		cfg := tiny(t, wl, 1, false)
		cfg.flip = true
		res := mustRun(t, cfg)
		if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
			t.Errorf("%s: flipped byte not caught: %d of %d failed, correct=%v", wl, res.Failed, res.Attempted, res.Correct)
		}
	}
}

// Two seeds give different op sequences and payloads but the same metric
// set.
func TestSeedsChangeInputsNotMetricSet(t *testing.T) {
	a := genOps(1, 0, 2, 8<<20, 128<<10, 64, 5)
	b := genOps(2, 0, 2, 8<<20, 128<<10, 64, 5)
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 generated the same op sequence")
	}
	if !reflect.DeepEqual(a, genOps(1, 0, 2, 8<<20, 128<<10, 64, 5)) {
		t.Error("seed 1 did not reproduce its op sequence")
	}
	if bytes.Equal(newPool(1).payload(1, 0, 0, 1, 4096), newPool(2).payload(2, 0, 0, 1, 4096)) {
		t.Error("seeds 1 and 2 generated the same payload")
	}
	keys := func(seed int64) []string {
		res := mustRun(t, tiny(t, "small_update", seed, false))
		var ks []string
		for k := range res.Metrics {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return ks
	}
	if k1, k2 := keys(1), keys(2); !reflect.DeepEqual(k1, k2) {
		t.Errorf("metric sets differ between seeds: %v vs %v", k1, k2)
	}
}
