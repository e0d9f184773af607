package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json at the repository root: the workloads and
// the metrics the benchmark promises, with their units, directions and
// end-to-end regression bounds. The program reads its metric lists from
// it, so the two cannot disagree.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const specFile = "BENCHMARK.json"

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp benchSpec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &sp, nil
}

// find returns the spec of a metric, end-to-end or per-layer.
func (sp *benchSpec) find(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// findRoot walks up from the working directory to the repository root,
// the nearest directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no %s in the working directory or above it", specFile)
		}
		dir = parent
	}
}

// summaryLine is the last line of a single-workload run: the
// correctness tally plus the end-to-end metrics (or, for a traced run,
// the per-layer metrics) that BENCHMARK.json lists, each exactly once.
func summaryLine(r *result, sp *benchSpec, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		got, ok := r.metric(m.Name)
		if !ok {
			return nil, fmt.Errorf("%s: %s lists %s, which the run did not measure", r.Workload, specFile, m.Name)
		}
		if got.Unit != m.Unit {
			return nil, fmt.Errorf("%s: %s is in %s, %s says %s", r.Workload, m.Name, got.Unit, specFile, m.Unit)
		}
		metrics[m.Name] = value{got.Value, got.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
