// Package vpred implements the value-prediction substrate for the paper's
// Section 3 "selected value prediction" application: last-value and stride
// predictors with confidence counters, and a selective driver that uses the
// DDT's dependent-count extension to restrict prediction to instructions
// with long dependence chains waiting on them (Calder's criticality
// heuristic, for which the paper's DDT supplies the missing mechanism).
//
// Main entry points: NewLastValue and NewStride build the two predictor
// families behind the Predictor interface; EvaluateSelective runs one
// benchmark through a predictor with a DDT-dependent-count criticality
// cut (threshold 0 = predict every value-producing instruction) and
// returns a Result (candidates, predictions, correct — from which
// Coverage and Accuracy derive). The dependent counts come from a
// wtrace.Window, the in-flight window the Section 3 studies share;
// EvaluateSelective adds only each in-flight instruction's pc, value and
// whether it writes a register. The experiment harness wraps this
// package as sim.VPredStudy (cells of `experiments -only vpred` and the
// service's POST /v1/study/vpred); the expected shape is that selection
// raises accuracy while deliberately lowering coverage.
package vpred
