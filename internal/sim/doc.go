// Package sim is the experiment harness for all of the paper's
// applications: the ARVI branch-prediction matrix ((benchmark × pipeline
// depth × predictor mode) cells, Section 5), the SMT fetch-policy study
// ((mix × policy) cells, Section 3), and the selective value-prediction
// ablation ((benchmark × predictor × selection) cells, Section 3). It
// runs the cells in parallel and renders the paper's tables and figures
// from the results.
//
// The package is organised around Engine, a cache-backed worker-pool
// runner with one cell path for every application. Branch-prediction
// cells (Spec, whose identity is the derived cpu.Config fingerprint) and
// study cells (the Study interface) run through the same runner: look
// the cell up, simulate on a miss, count, write back — on one bounded
// pool (ForEach) that bounds goroutine spawn to a fixed worker count,
// keeps every completed result even when sibling runs fail (partial
// results plus a joined error), and — when given a Cache — persists each
// cell's statistics in one self-describing entry format keyed by a
// content hash of the cell's full identity, so an interrupted or enlarged
// sweep only simulates the cells it has not seen before. A new study
// therefore gets pooling, caching and the partial-result contract by
// implementing Study.
//
// Main entry points:
//
//   - Spec / Simulate / Engine.Run / Engine.RunMatrix — the Section 5
//     branch-prediction cells and grids; MatrixSpecs enumerates a grid's
//     cells, Matrix holds a (possibly partial) grid and
//     Fig5a/Fig5b/Fig6Accuracy/Fig6IPC/Table2/Table4 render the paper's
//     artifacts from it.
//   - Study / RunStudies — the cache-keyed cell contract of the Section 3
//     studies; Engine.RunSMTGrid and Engine.RunVPredGrid wire the two
//     studies through it, over the cells SMTStudies and VPredStudies
//     enumerate.
//   - MatrixExport (Matrix.Export), SMTGrid and VPredGrid — each grid's
//     one JSON body: the CLI's -json file, the service's response and
//     the worker answer the dist coordinator decodes. One JSON writer
//     and one CSV writer (csv.go) render all three; the CSV holds each
//     record's scalar fields, headed by their JSON names.
//   - ForEach — the bounded worker pool the engine and the dist
//     coordinator share.
//   - Engine.RunConfThresholdSweep / Engine.RunCutAtLoadsSweep — the
//     ablation sweeps (DESIGN.md ablation A1 and the JRS threshold).
//   - OpenCache / OpenTraceStore — the two persistence tiers (per-cell
//     results; record-once/replay-many traces), shared by every front
//     end: cmd/experiments, cmd/arvisim and the HTTP service
//     (internal/server via cmd/arvid).
//   - ParseMode / ValidateSpec and friends (validate.go) — the shared
//     user-input rules, so every front end rejects a bad value with the
//     same message.
package sim
