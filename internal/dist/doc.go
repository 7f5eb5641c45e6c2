// Package dist is the coordinator tier of arvid's distributed sweep
// execution: one daemon in the coordinator role decomposes a matrix,
// study or artifact request into per-cell jobs and fans them out over
// HTTP to a registered set of worker arvid daemons, then merges the
// answers into exactly the response a single node would have produced.
//
// Coordinator is a sim.Runner, as the local sim.Engine is: RunEach,
// RunSMTGrid and RunVPredGrid take the engine's arguments and return its
// results. The server runs every sweep through whichever of the two its
// role selects, so a new sweep endpoint fans out without dist code.
//
// The design leans entirely on identities the system already has:
//
//   - Job identity is cache identity. A matrix cell's job key is its
//     result-cache key (canonical-JSON + SHA-256 over Spec and the full
//     derived cpu.Config); a study job's key is its sim.StudyKey. Two
//     coordinators — or a coordinator and a local run — can never
//     disagree about what a job means, because the key pins every
//     parameter that affects the answer.
//   - Placement is rendezvous hashing over (worker, job key), so a given
//     cell lands on the same worker across sweeps and retries walk the
//     same deterministic preference order. That gives cache affinity
//     without any assignment state to persist or repair.
//   - The wire protocol is the public worker API. A matrix cell is one
//     POST /v1/run; an SMT mix is one POST /v1/study/smt with a single
//     mix; a vpred (bench, predictor) pair is one POST /v1/study/vpred.
//     Workers validate with the same internal/sim rules as always — the
//     coordinator holds no privileged channel. The requests are declared
//     once (wire.go) and shared with the handlers in internal/server; the
//     answers are internal/sim's own result types (sim.Result,
//     sim.SMTGrid, sim.VPredGrid), which the handlers encode and the
//     coordinator decodes, so the two ends cannot drift apart.
//
// Every kind of job runs through one code path (job.run): look aside,
// place, POST, check the answer, keep it, retry, fall back to local. A
// kind contributes only a job constructor — its key, request, answer
// check, local computation, and how its cells are read from and written
// to a cache. The answer check compares the whole cell identity (the
// full Spec; the SMT model config; the vpred parameters; each study
// cell's mix or bench, policy or predictor and selection, in run order),
// so a worker answering for any other cell — another budget, another
// ablation knob, a build with other study defaults, a duplicated study
// cell — is a failed attempt, not data.
//
// The coordinator's own result cache (the Local engine's) sits in front
// of placement:
//
//   - Look-aside. Before placing a job, the coordinator reads each of its
//     cells from that cache (overlay and disk, through the cache's one
//     decode gate). When every cell is there the job is answered on the
//     spot: no placement, no request, no simulation, and no counter
//     moves. A job only partly cached is placed whole.
//   - Keep. A worker answer that passed the check is stored in the same
//     cache, under the keys and as the entry bytes a local run writes.
//     So the next identical sweep or artifact is answered by the
//     coordinator alone, and a corrupt kept entry fails the decode gate,
//     is removed, and its job goes to the worker again, whose answer is
//     kept anew.
//
// A coordinator with no Local engine, or one without a cache, places
// every job.
//
// Failure handling is bounded and local: a failed or timed-out job is
// retried on the next worker in its preference order with exponential
// backoff, a worker that failed recently is deprioritised (never
// excluded — a wrong health guess must cost latency, not correctness),
// and when every worker attempt is spent the coordinator computes the
// cell on its own engine. Jobs run on sim's bounded pool (sim.ForEach),
// and per-job errors merge under the same errors.Join partial-result
// contract the engine uses, so a distributed sweep degrades exactly like
// a local one.
//
// Merging preserves the single-node byte-identity contract. Run answers
// are folded into a sim.Matrix by the same functions (sim.RunMatrix,
// sim.RunArtifacts) a local run uses and rendered through the same
// Export path or artifact tables; a study answer decodes into the sim
// grid itself, and the merged grid appends each answer's cells in request
// order, which is the local run order. The cluster tests pin
// distributed output byte-for-byte against single-node output.
//
// See DESIGN.md's distributed execution section for the full contract,
// including why a coordinator in front is the one way daemons share
// results, and the chunked-JSON streaming format (wire.go) for
// incremental matrix results.
package dist
