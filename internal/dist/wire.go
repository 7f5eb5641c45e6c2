package dist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sim"
)

// The worker API's requests are declared once, here, and used by both
// ends: internal/server's handlers decode them and the coordinator
// encodes the jobs it fans out. The answers are internal/sim's own
// result types — sim.Result for a run, sim.SMTGrid and sim.VPredGrid for
// the studies — which the handlers encode and the coordinator decodes,
// so neither side can drift from the other or from the CLI's exports.

// ErrorBody is the uniform error envelope of every non-200 response.
type ErrorBody struct {
	Error string `json:"error"`
}

// RunRequest is the POST /v1/run body. The coordinator sends the mode as
// its report name (sim.ParseMode accepts both spellings), so the job a
// worker validates is spelled exactly like the result it returns. The
// response is a sim.Result — exactly `arvisim -json`'s payload.
type RunRequest struct {
	Bench         string `json:"bench"`
	Depth         int    `json:"depth"`
	Mode          string `json:"mode"`
	MaxInsts      int64  `json:"max_insts"`
	CutAtLoads    bool   `json:"cut_at_loads"`
	ConfThreshold uint   `json:"conf_threshold"`
}

// SMTRequest is the POST /v1/study/smt body; the answer is a sim.SMTGrid.
type SMTRequest struct {
	Mixes     []string `json:"mixes"`
	MaxCycles int64    `json:"max_cycles"`
}

// VPredRequest is the POST /v1/study/vpred body; the answer is a
// sim.VPredGrid.
type VPredRequest struct {
	Benches      []string `json:"benches"`
	Predictors   []string `json:"predictors"`
	MaxInsts     int64    `json:"max_insts"`
	DepThreshold int      `json:"dep_threshold"`
}

// The streaming matrix format (/v1/matrix?stream=1) is chunked JSON
// lines: one compact JSON object per line, each carrying exactly one of
//
//	{"result": <sim.Result>}   — a completed cell, in completion order
//	{"done": <StreamTrailer>}  — the trailer; always the last line
//
// Cells arrive in completion order, which is nondeterministic; the
// byte-identity contract therefore lives one level up: the reassembled
// cell *set* matches the non-streamed response exactly, and the trailer
// carries the totals and the joined partial-failure error the blocking
// response would have carried. A stream that ends without a trailer was
// truncated (worker death, connection loss) and must be treated as a
// failed request, never as a short result set.

// MaxStreamLine caps one stream line's length. A sim.Result encodes in
// well under a kilobyte; a megabyte line means a confused or hostile
// sender and fails the decode instead of ballooning memory.
const MaxStreamLine = 1 << 20

// StreamLine is one line of the matrix stream.
type StreamLine struct {
	Result *sim.Result    `json:"result,omitempty"`
	Done   *StreamTrailer `json:"done,omitempty"`
}

// StreamTrailer ends a matrix stream: the request's budget and cell
// count (so a client can detect missing cells without knowing the grid
// shape) and the joined error under the partial-result contract.
type StreamTrailer struct {
	MaxInsts int64  `json:"max_insts"`
	Cells    int    `json:"cells"`
	Error    string `json:"error,omitempty"`
}

// EncodeStreamLine renders one line, newline-terminated. Unlike the
// blocking responses the stream is compact (one object per line is the
// framing; indentation would break it).
func EncodeStreamLine(l StreamLine) []byte {
	b, err := json.Marshal(l)
	if err != nil {
		// StreamLine is a plain value struct; this is a programming error,
		// not an input error.
		panic(fmt.Sprintf("dist: marshal stream line: %v", err))
	}
	return append(b, '\n')
}

// DecodeMatrixStream reads a full matrix stream and returns the
// reassembled cells plus the trailer. Malformed input — junk lines, a
// line carrying both or neither field, data after the trailer, an
// oversized line, or a stream that ends without a trailer — fails with
// an error and whatever cells decoded before the corruption, so a caller
// can degrade without ever mistaking a truncated stream for a complete
// one.
func DecodeMatrixStream(r io.Reader) ([]sim.Result, *StreamTrailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxStreamLine)
	var results []sim.Result
	var trailer *StreamTrailer
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if trailer != nil {
			return results, nil, fmt.Errorf("dist: stream line %d: data after trailer", line)
		}
		l, err := decodeStreamLine(raw)
		if err != nil {
			return results, nil, fmt.Errorf("dist: stream line %d: %w", line, err)
		}
		if l.Result != nil {
			results = append(results, *l.Result)
		} else {
			trailer = l.Done
		}
	}
	if err := sc.Err(); err != nil {
		return results, nil, fmt.Errorf("dist: stream read: %w", err)
	}
	if trailer == nil {
		return results, nil, fmt.Errorf("dist: stream truncated: no trailer after %d cells", len(results))
	}
	return results, trailer, nil
}

// decodeStreamLine strictly decodes one line: unknown fields, trailing
// data, and anything but exactly one of result/done are errors.
func decodeStreamLine(raw []byte) (StreamLine, error) {
	var l StreamLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return StreamLine{}, fmt.Errorf("bad line: %v", err)
	}
	if dec.More() {
		return StreamLine{}, fmt.Errorf("trailing data after line object")
	}
	if (l.Result == nil) == (l.Done == nil) {
		return StreamLine{}, fmt.Errorf("line must carry exactly one of result, done")
	}
	return l, nil
}
