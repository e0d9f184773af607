package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// SchemaV1 identifies the current benchmark-document layout. Bump it
// when a field changes meaning, so benchgate can refuse to compare
// incompatible documents instead of reporting spurious drift.
const SchemaV1 = "repro-bench/v1"

// Document is one benchmark artifact: every record a tool run produced,
// in deterministic order. Kernels and Slots carry no timestamps or host
// information — the same tree must produce byte-identical records, so a
// baseline diff is exact. Service is the deliberate exception: it
// carries the host-side performance picture (wall-clock slots/sec,
// cache hit rate) of the artifact's service run, varies run to run, and
// is never diffed (Diff walks Kernels and Slots only).
type Document struct {
	Schema string `json:"schema"`
	// Tool names the producer ("kernelbench", "benchgate", "puschsim").
	Tool string `json:"tool,omitempty"`

	Kernels []KernelRecord `json:"kernels,omitempty"`
	Slots   []SlotRecord   `json:"slots,omitempty"`

	// Service is the benchgate cache-gate summary: the served mixed
	// trace's aggregate picture with HostStats attached, so the BENCH
	// artifact records host throughput and cache hit rate per commit.
	Service *ServiceSummary `json:"service,omitempty"`

	// Calibration is the benchgate calibration-gate summary: the
	// analytic timing model's held-out relative cycle error per
	// cluster against the committed budget, so the BENCH artifact
	// records model fidelity per commit. Like Service it is
	// informational and never diffed.
	Calibration *CalibrationSummary `json:"calibration,omitempty"`

	// Fleet is the benchgate fleet-gate summary: the multi-cell serve
	// of the gate trace with per-cell summaries and HostStats attached,
	// so the BENCH artifact records fleet throughput per commit. Like
	// Service it is informational and never diffed.
	Fleet *FleetSummary `json:"fleet,omitempty"`
}

// CalibrationSummary is the analytic timing model's held-out error
// picture: for each calibrated cluster, the relative error of the
// model's total slot-cycle predictions over the held-out scenario grid
// (never the fit grid), against the error budget committed inside the
// calibration artifact. The benchgate calibration gate fails when any
// cluster's P95 exceeds the budget.
type CalibrationSummary struct {
	// Schema echoes the calibration artifact's schema tag
	// ("timing-cal/v1").
	Schema string `json:"schema"`
	// BudgetP95 is the committed ceiling on P95 relative error.
	BudgetP95 float64                   `json:"budget_p95"`
	Clusters  []CalibrationClusterError `json:"clusters"`
}

// CalibrationClusterError is one cluster's held-out error statistics:
// quantiles of |predicted - measured| / measured over the holdout
// grid's total slot cycles.
type CalibrationClusterError struct {
	Cluster string  `json:"cluster"`
	Points  int     `json:"points"`
	P50     float64 `json:"p50_rel_err"`
	P95     float64 `json:"p95_rel_err"`
	Max     float64 `json:"max_rel_err"`
}

// NewDocument returns an empty v1 document for the named tool.
func NewDocument(tool string) *Document {
	return &Document{Schema: SchemaV1, Tool: tool}
}

// Write serializes the document as indented JSON. Encoding is
// deterministic: struct fields in declaration order, records in
// insertion order.
func (d *Document) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteFile writes the document to path, creating or truncating it.
func (d *Document) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a document and checks its schema.
func Read(r io.Reader) (*Document, error) {
	var d Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("report: decoding document: %w", err)
	}
	if d.Schema != SchemaV1 {
		return nil, fmt.Errorf("report: document schema %q, this tool reads %q", d.Schema, SchemaV1)
	}
	return &d, nil
}

// Load reads a document from a file.
func Load(path string) (*Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
