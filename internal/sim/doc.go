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
// Runner is the interface of a sweep executor: RunEach over specs, and
// RunSMTGrid and RunVPredGrid over the two studies. Engine implements it
// locally; internal/dist's Coordinator implements it by fanning the
// cells out to worker daemons. The functions over it (RunMatrix,
// RunArtifacts) fold either executor's results into the same Matrix, so
// a front end holds one Runner and renders the same bytes in any role.
//
// Main entry points:
//
//   - Spec / Engine.Run / RunMatrix — the Section 5 branch-prediction
//     cells and grids. Every cell replays its benchmark's trace from the
//     engine's trace store (Engine.Traces, or a private one), so each
//     benchmark runs on the functional VM once per store;
//     cpu.Run's live-VM run is the reference the tests hold replay to.
//     MatrixSpecs enumerates a grid's cells, Matrix holds a (possibly
//     partial) grid and Fig5a/Fig5b/Fig6Accuracy/Fig6IPC/Table2/Table4
//     render the paper's artifacts from it.
//   - Artifacts / RunArtifacts / RenderArtifacts — the seven text
//     artifacts (Tables 2 and 4, Figures 5(a), 5(b) and 6 with the
//     headline, and the two ablation sweeps), declared once: each entry
//     names the cells it reads at a budget and a depth and the tables it
//     renders from one Matrix. The sweeps (the JRS confidence threshold
//     and DESIGN.md ablation A1) are ordinary matrix cells, because the
//     ablation knobs are part of a cell's identity. The driver runs the
//     union of the selected entries' cells once; cmd/experiments and the
//     service's /v1/artifacts both render through it.
//   - Study / RunStudies — the cache-keyed cell contract of the Section 3
//     studies; Engine.RunSMTGrid and Engine.RunVPredGrid wire the two
//     studies through it, over the cells SMTStudies (every mix under
//     every SMTPolicies policy) and VPredStudies enumerate.
//   - MatrixExport (Matrix.Export), SMTGrid and VPredGrid — each grid's
//     one JSON body: the CLI's -json file, the service's response and
//     the worker answer the dist coordinator decodes. One JSON writer
//     and one CSV writer (csv.go) render all three; the CSV holds each
//     record's scalar fields, headed by their JSON names.
//   - ForEach — the bounded worker pool the engine and the dist
//     coordinator share.
//   - OpenCache / NewTraceStore — the two stores, shared by every front
//     end: cmd/experiments, cmd/arvisim and the HTTP service
//     (internal/server via cmd/arvid). The result cache persists per-cell
//     results as key derivation plus a codec over a storage.Tier, which
//     owns the disk-fault protocol (circuit breaker, degraded-mode
//     overlay and flush) and self-healing. The dist coordinator answers
//     jobs it already holds from its engine's cache and keeps worker
//     answers there; a study's Record builds its grid cell for both the
//     engine and the coordinator. The trace store is memory-only: it
//     records a program's trace on first use, under a per-key
//     singleflight, and keeps the decoded traces in an LRU.
//   - ParseMode / ValidateSpec and friends (validate.go) — the shared
//     user-input rules, so every front end rejects a bad value with the
//     same message (ValidateBaseURL covers worker URLs,
//     ValidateNonNegative the count and duration flags whose 0 means a
//     default).
package sim
