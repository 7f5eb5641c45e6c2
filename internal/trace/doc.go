// Package trace records and replays the correct-path dynamic instruction
// stream consumed by the timing model — the mechanism behind the
// record-once/replay-many tier that lets every (depth × predictor)
// configuration of one benchmark share a single functional-VM execution
// (the property the paper's own SimpleScalar-style methodology relies
// on: all Section 5 configurations see the same dynamic stream).
//
// A trace file stores, per retired instruction, the PC, the architectural
// next PC, the branch outcome, the effective address and the result
// value: one vm.Rec, the 32-byte record the timing model reads. The
// static instruction is the program text at the PC, so traces stay
// compact and a trace is only valid together with the program that
// produced it.
//
// The header binds a trace to its program: it carries the program's
// content fingerprint (prog.Fingerprint), so replaying against the wrong
// program is an error rather than a silent garbage run, and the exact
// record count, so a truncated file is detected even when it was cut at a
// record boundary. The count is always exact, whatever the sink: a trace
// is written whole from memory, so a pipe needs no seek. Decode still
// reads the EOF-terminated traces (count ^0) that earlier builds streamed
// to pipes.
//
// A trace has one form in memory, Decoded, a slice of vm.Rec, and one
// codec: RecordAll executes a program on the functional VM and returns
// its trace, Decoded.WriteTo writes the file, and Decode reads and
// validates a whole file back, growing its records as they arrive rather
// than trusting the header's count to size them. A Decoded's Cursor
// values are independent lock-free replay positions that implement
// cpu.EventSource: each chunk they return is a sub-slice of the shared
// record array, read in place with no copy. That is the form
// sim.TraceStore keeps resident so concurrent timing runs share one
// immutable decoded trace.
package trace
