// Package smt implements the Section 3 SMT application: using per-thread
// dependence-chain information from per-thread DDTs as a fetch-priority
// signal, compared against Tullsen's ICOUNT policy and blind round-robin.
//
// The model is deliberately lean — the point under study is the fetch
// policy, not the memory system: N threads each run a program on a private
// functional VM; a shared front end fetches up to FetchWidth instructions
// per cycle from the single highest-priority thread (ICOUNT.1.W style).
// Instructions enter the thread's private window, become ready when their
// register sources complete (loads carry a fixed latency), and leave the
// window in order once completed. Each thread's window is a
// wtrace.Window — the rename map, free list and DDT the other Section 3
// studies share — and the thread adds only completion times and chain
// lengths. The dependence policy prioritises the thread whose in-flight
// instructions have the shortest average dependence chains — the paper's
// "more accurate measure of the likelihood of a particular thread making
// forward progress".
//
// Main entry points: Run executes one (programs × Policy × Config) cell
// and returns a Result (combined cycles, per-thread retired counts, peak
// shared-window occupancy); Policy enumerates RoundRobin, ICOUNT and
// DepLength; DefaultConfig is the study's 4-wide, 64-entry-window
// operating point. The experiment harness wraps this package as
// sim.SMTStudy (cells of `experiments -only smt` and the service's
// POST /v1/study/smt).
package smt
