package vpred

import (
	"fmt"

	"repro/internal/prog"
	"repro/internal/vm"
	"repro/internal/wtrace"
)

// Predictor predicts the result value of an instruction at a PC.
type Predictor interface {
	// Predict returns the predicted value and whether the predictor is
	// confident enough to use it.
	Predict(pc uint64) (int64, bool)
	// Update trains the predictor with the actual result.
	Update(pc uint64, value int64)
	// Name identifies the predictor.
	Name() string
}

// LastValue predicts that an instruction produces the same value as last
// time, guarded by a saturating confidence counter.
type LastValue struct {
	vals []int64
	conf []uint8
	mask uint64
	min  uint8
}

// NewLastValue builds a last-value predictor with entries (power of two)
// and the given confidence threshold.
func NewLastValue(entries int, confMin uint8) (*LastValue, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("vpred: entries %d not a power of two", entries)
	}
	return &LastValue{
		vals: make([]int64, entries),
		conf: make([]uint8, entries),
		mask: uint64(entries - 1),
		min:  confMin,
	}, nil
}

// Predict implements Predictor.
func (p *LastValue) Predict(pc uint64) (int64, bool) {
	i := pc & p.mask
	return p.vals[i], p.conf[i] >= p.min
}

// Update implements Predictor.
func (p *LastValue) Update(pc uint64, value int64) {
	i := pc & p.mask
	if p.vals[i] == value {
		if p.conf[i] < 15 {
			p.conf[i]++
		}
		return
	}
	p.vals[i] = value
	p.conf[i] = 0
}

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// Stride predicts v + stride, learning the stride from consecutive values.
type Stride struct {
	vals    []int64
	strides []int64
	conf    []uint8
	mask    uint64
	min     uint8
}

// NewStride builds a stride predictor.
func NewStride(entries int, confMin uint8) (*Stride, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("vpred: entries %d not a power of two", entries)
	}
	return &Stride{
		vals:    make([]int64, entries),
		strides: make([]int64, entries),
		conf:    make([]uint8, entries),
		mask:    uint64(entries - 1),
		min:     confMin,
	}, nil
}

// Predict implements Predictor.
func (p *Stride) Predict(pc uint64) (int64, bool) {
	i := pc & p.mask
	return p.vals[i] + p.strides[i], p.conf[i] >= p.min
}

// Update implements Predictor.
func (p *Stride) Update(pc uint64, value int64) {
	i := pc & p.mask
	stride := value - p.vals[i]
	if stride == p.strides[i] {
		if p.conf[i] < 15 {
			p.conf[i]++
		}
	} else {
		p.strides[i] = stride
		p.conf[i] = 0
	}
	p.vals[i] = value
}

// Name implements Predictor.
func (p *Stride) Name() string { return "stride" }

// Result summarises a selective value-prediction evaluation.
type Result struct {
	Insts       int64 // dynamic value-producing instructions observed
	Candidates  int64 // instructions selected by the criticality filter
	Predictions int64 // confident predictions issued
	Correct     int64
}

// Coverage is predictions / value-producing instructions.
func (r Result) Coverage() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.Predictions) / float64(r.Insts)
}

// Accuracy is correct / predictions.
func (r Result) Accuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Predictions)
}

// EvaluateSelective runs the program functionally for up to maxInsts and
// measures the value predictor restricted to DDT-critical instructions:
// only instructions whose entry has accumulated at least depThreshold
// trailing dependents by the time the window retires them are candidates.
// A depThreshold of 0 disables selection (predict everything).
//
// The DDT is maintained over a sliding wtrace.Window of windowSize
// instructions (the in-flight set of an idealized machine); predictions
// are scored when the window retires an instruction, at which point its
// final dependent count is known.
func EvaluateSelective(p *prog.Program, pred Predictor, maxInsts int64,
	windowSize, depThreshold int) (Result, error) {
	win, err := wtrace.NewWindow(windowSize, true)
	if err != nil {
		return Result{}, err
	}
	ddt := win.DDT()
	type slot struct {
		pc      uint64
		val     int64
		hasDest bool
	}
	slots := make([]slot, windowSize) // indexed by DDT entry
	var res Result
	_, err = vm.New(p).Run(maxInsts, func(ev *vm.Event) error {
		in := ev.Inst
		slots[ddt.Head()] = slot{pc: uint64(ev.PC), val: ev.Val, hasDest: in.HasDest()}
		if _, ierr := win.Insert(in, win.Sources(in)); ierr != nil {
			return ierr
		}
		if !ddt.Full() {
			return nil
		}
		// The window is full: retire its oldest instruction, scored with
		// the dependents it gathered while in flight.
		if s := slots[ddt.Tail()]; s.hasDest {
			res.Insts++
			if ddt.DepCount(ddt.Tail()) >= depThreshold {
				res.Candidates++
				if v, confident := pred.Predict(s.pc); confident {
					res.Predictions++
					if v == s.val {
						res.Correct++
					}
				}
				pred.Update(s.pc, s.val)
			}
		}
		return win.Retire()
	})
	return res, err
}
