package main

import (
	_ "embed"
	"encoding/json"
	"os"
	"sort"
)

// defaultSeed is the seed expected.json was recorded at.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expectedFile pins every workload's counters — simulated outputs that are
// pure functions of the seed — at the default seed and full scale. A change
// that only makes the simulator faster must leave every one identical.
type expectedFile struct {
	Seed     uint64                       `json:"seed"`
	Counters map[string]map[string]string `json:"counters"`
}

// checkExpected compares a run's counters with the recorded ones when they
// apply: at the full scale, and at the default seed for the workloads whose
// inputs depend on the seed (the inet pair always runs the reference episode).
// Other runs have only the seed-independent checks. Op counts are fixed, so
// the two counter sets must be the same set.
func checkExpected(e *env, r *e2eRun) {
	seeded := r.workload == wPaperFigs || r.workload == wRfddMix
	if e.scale.name != fullScale.name || (seeded && e.seed != defaultSeed) {
		return
	}
	var exp expectedFile
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		r.fail("expected.json: %v", err)
		return
	}
	want := exp.Counters[r.workload]
	for _, k := range sortedKeys(want) {
		if got, ok := r.counters[k]; !ok {
			r.fail("counter %s is in expected.json but the run did not produce it", k)
		} else if got != want[k] {
			r.fail("counter %s = %s, expected.json has %s", k, got, want[k])
		}
	}
	for _, k := range sortedKeys(r.counters) {
		if _, ok := want[k]; !ok {
			r.fail("counter %s = %s is not in expected.json", k, r.counters[k])
		}
	}
}

// writeExpected records the counters of a full-scale default-seed suite.
func writeExpected(path string, counters map[string]map[string]string) error {
	data, err := json.MarshalIndent(expectedFile{Seed: defaultSeed, Counters: counters}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
