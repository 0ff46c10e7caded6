// Machine-readable reporting: every experiment result converts into a
// JSON-friendly shape, and cmd/experiments -json accumulates them into one
// Report document. Times are microseconds (the unit the paper quotes),
// overheads percent.
package experiments

import (
	"rtad/internal/core"
	"rtad/internal/kernels"
	"rtad/internal/obs"
	"rtad/internal/sim"
)

// ReportSchema versions the JSON layout. Version 2 records the inference
// backend in every report, and the calibration table when one was shared.
const ReportSchema = "rtad-experiments/2"

// Report is one cmd/experiments run.
type Report struct {
	Schema     string   `json:"schema"`
	Benchmarks []string `json:"benchmarks,omitempty"` // empty = all 12
	Workers    int      `json:"workers"`              // fleet width used
	// Backend names the inference backend the detection pipelines ran on,
	// resolved: an empty Options.Backend records kernels.DefaultBackend.
	Backend string `json:"backend"`
	// Calibration embeds the recorded per-shape cycle costs the native
	// backends replayed; omitted unless a calibration table was shared
	// across the run. Populate via RecordCalibration after the experiments
	// finish.
	Calibration []kernels.CalEntry `json:"calibration,omitempty"`
	// WallSeconds records each experiment's wall-clock time, keyed by the
	// same names the JSON payload uses (table1, fig6, ...). With Workers
	// varied it documents the fleet speedup alongside unchanged results.
	WallSeconds map[string]float64 `json:"wall_seconds,omitempty"`

	TableI  *TableIReport  `json:"table1,omitempty"`
	TableII *TableIIReport `json:"table2,omitempty"`
	Fig6    *Fig6Report    `json:"fig6,omitempty"`
	Fig7    *Fig7Report    `json:"fig7,omitempty"`
	Fig8    *Fig8Report    `json:"fig8,omitempty"`

	// Metrics is the end-of-run registry snapshot when the run was made
	// with Options.Telemetry (cmd/experiments -metrics); absent otherwise,
	// keeping un-instrumented reports byte-identical to older builds.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// NewReport starts a report for the given options.
func NewReport(o Options) *Report {
	r := &Report{
		Schema:      ReportSchema,
		Benchmarks:  o.Benchmarks,
		Workers:     o.fleet().Workers(),
		Backend:     o.Backend,
		WallSeconds: map[string]float64{},
	}
	if r.Backend == "" {
		r.Backend = kernels.DefaultBackend
	}
	return r
}

// RecordCalibration embeds the shared cycle-cost table's entries (sorted,
// deterministic). A nil or empty table leaves the report untouched.
func (r *Report) RecordCalibration(c *kernels.Calibration) {
	if c.Len() == 0 {
		return
	}
	r.Calibration = c.Entries()
}

// TableIReport is the synthesized-results table.
type TableIReport struct {
	Rows  []TableIRowReport `json:"rows"`
	Total AreaReport        `json:"total"`
}

// TableIRowReport is one module line.
type TableIRowReport struct {
	Module    string     `json:"module"`
	Submodule string     `json:"submodule,omitempty"`
	Area      AreaReport `json:"area"`
}

// AreaReport is a synthesis area in device resources.
type AreaReport struct {
	LUTs  int `json:"luts"`
	FFs   int `json:"ffs"`
	BRAMs int `json:"brams,omitempty"`
	Gates int `json:"gates,omitempty"`
}

// Report converts the synthesis table.
func (r *TableIResult) Report() *TableIReport {
	out := &TableIReport{Total: AreaReport{
		LUTs: r.Table.Total.LUTs, FFs: r.Table.Total.FFs,
		BRAMs: r.Table.Total.BRAMs, Gates: r.Table.Total.Gates,
	}}
	for _, row := range r.Table.Rows {
		out.Rows = append(out.Rows, TableIRowReport{
			Module: row.Module, Submodule: row.Submodule,
			Area: AreaReport{
				LUTs: row.Area.LUTs, FFs: row.Area.FFs,
				BRAMs: row.Area.BRAMs, Gates: row.Area.Gates,
			},
		})
	}
	return out
}

// TableIIReport is the trimming comparison.
type TableIIReport struct {
	MIAOW   AreaReport `json:"miaow"`
	MIAOW20 AreaReport `json:"miaow2_0"`
	MLMIAOW AreaReport `json:"mlmiaow"`
	// ReductionPct are LUT+FF reductions versus MIAOW (negative = smaller).
	MIAOW20ReductionPct float64 `json:"miaow2_0_reduction_pct"`
	MLMIAOWReductionPct float64 `json:"mlmiaow_reduction_pct"`
	PerfPerAreaVsMIAOW2 float64 `json:"perf_per_area_vs_miaow2_0"`
	TrimmedBlocks       int     `json:"trimmed_blocks"`
	Verified            bool    `json:"verified"`
}

// Report converts the trimming result.
func (r *TableIIResult) Report() *TableIIReport {
	t := r.Trim
	return &TableIIReport{
		MIAOW:               AreaReport{LUTs: t.MIAOW.LUTs, FFs: t.MIAOW.FFs, BRAMs: t.MIAOW.BRAMs},
		MIAOW20:             AreaReport{LUTs: t.MIAOW20.LUTs, FFs: t.MIAOW20.FFs, BRAMs: t.MIAOW20.BRAMs},
		MLMIAOW:             AreaReport{LUTs: t.MLMIAOW.LUTs, FFs: t.MLMIAOW.FFs, BRAMs: t.MLMIAOW.BRAMs},
		MIAOW20ReductionPct: -100 * t.MIAOW20.Reduction(t.MIAOW),
		MLMIAOWReductionPct: -100 * t.MLMIAOW.Reduction(t.MIAOW),
		PerfPerAreaVsMIAOW2: t.PerfPerAreaVsMIAOW20(),
		TrimmedBlocks:       len(t.Trimmed),
		Verified:            t.Verified,
	}
}

// Fig6Report is the overhead study.
type Fig6Report struct {
	Rows []Fig6RowReport `json:"rows"`
	// GeomeanPct is keyed by collection-mode name (rtad, sw_sys, ...).
	GeomeanPct map[string]float64 `json:"geomean_pct"`
}

// Fig6RowReport is one benchmark's overheads by mode name, in percent.
type Fig6RowReport struct {
	Benchmark   string             `json:"benchmark"`
	OverheadPct map[string]float64 `json:"overhead_pct"`
}

// Report converts the overhead study.
func (r *Fig6Result) Report() *Fig6Report {
	out := &Fig6Report{GeomeanPct: map[string]float64{}}
	for _, row := range r.Rows {
		rr := Fig6RowReport{Benchmark: row.Benchmark, OverheadPct: map[string]float64{}}
		for _, m := range Fig6Modes {
			rr.OverheadPct[m.String()] = 100 * row.Overhead[m]
		}
		out.Rows = append(out.Rows, rr)
	}
	for _, m := range Fig6Modes {
		out.GeomeanPct[m.String()] = 100 * r.Geomean[m]
	}
	return out
}

// Fig7Report is the transfer-latency comparison, stages in microseconds.
type Fig7Report struct {
	Benchmark string         `json:"benchmark"`
	Vectors   int            `json:"vectors_averaged"`
	SW        TransferReport `json:"sw"`
	RTAD      TransferReport `json:"rtad"`
}

// TransferReport is one delivery path's stage breakdown in microseconds.
type TransferReport struct {
	ReadUS      float64 `json:"read_us"`
	VectorizeUS float64 `json:"vectorize_us"`
	WriteUS     float64 `json:"write_us"`
	TotalUS     float64 `json:"total_us"`
}

func transferReport(t core.TransferBreakdown) TransferReport {
	return TransferReport{
		ReadUS:      t.Read.Microseconds(),
		VectorizeUS: t.Vectorize.Microseconds(),
		WriteUS:     t.Write.Microseconds(),
		TotalUS:     t.Total().Microseconds(),
	}
}

// Report converts the transfer-latency comparison.
func (r *Fig7Result) Report() *Fig7Report {
	return &Fig7Report{
		Benchmark: r.Benchmark,
		Vectors:   r.Vectors,
		SW:        transferReport(r.SW),
		RTAD:      transferReport(r.RTAD),
	}
}

// Fig8Report is the detection-latency study.
type Fig8Report struct {
	ELM         []Fig8RowReport `json:"elm"`
	LSTM        []Fig8RowReport `json:"lstm"`
	MeanSpeedup float64         `json:"mean_speedup"`
	// Mean ML-MIAOW / MIAOW latencies per model, microseconds.
	MeanUS map[string]float64 `json:"mean_us"`
}

// Fig8RowReport is one benchmark × model cell.
type Fig8RowReport struct {
	Benchmark      string  `json:"benchmark"`
	MIAOWUS        float64 `json:"miaow_us"`
	MLMIAOWUS      float64 `json:"mlmiaow_us"`
	Speedup        float64 `json:"speedup"`
	DroppedMIAOW   int64   `json:"dropped_miaow"`
	DroppedMLMIAOW int64   `json:"dropped_mlmiaow"`
	Detected       bool    `json:"detected"`
}

// Report converts the detection-latency study.
func (r *Fig8Result) Report() *Fig8Report {
	conv := func(rows []Fig8Row) []Fig8RowReport {
		out := make([]Fig8RowReport, len(rows))
		for i, row := range rows {
			out[i] = Fig8RowReport{
				Benchmark:      row.Benchmark,
				MIAOWUS:        row.MIAOW.Microseconds(),
				MLMIAOWUS:      row.MLMIAOW.Microseconds(),
				Speedup:        row.Speedup,
				DroppedMIAOW:   row.DroppedM,
				DroppedMLMIAOW: row.DroppedML,
				Detected:       row.Detected,
			}
		}
		return out
	}
	us := func(t sim.Time) float64 { return t.Microseconds() }
	return &Fig8Report{
		ELM:         conv(r.ELM),
		LSTM:        conv(r.LSTM),
		MeanSpeedup: r.MeanSpeedup,
		MeanUS: map[string]float64{
			"elm_miaow":    us(MeanLatency(r.ELM, false)),
			"elm_mlmiaow":  us(MeanLatency(r.ELM, true)),
			"lstm_miaow":   us(MeanLatency(r.LSTM, false)),
			"lstm_mlmiaow": us(MeanLatency(r.LSTM, true)),
		},
	}
}
