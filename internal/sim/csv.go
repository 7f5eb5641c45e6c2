package sim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// Every result grid leaves the process through one declaration of its
// body: MatrixExport, SMTGrid, VPredGrid. The CLI's -json and -csv files
// (writeJSON and writeCSV below serve all three), the service's response
// bodies and the worker answers the coordinator decodes are all these
// types, so they agree byte for byte by construction.

// Record is one exported matrix cell with its derived metrics and the
// full raw stats. NormIPC is nil when the cell's baseline sibling is
// missing (partial grid): JSON consumers see null, CSV an empty field.
type Record struct {
	Bench        string    `json:"bench"`
	Depth        int       `json:"depth"`
	Mode         string    `json:"mode"`
	IPC          float64   `json:"ipc"`
	NormIPC      *float64  `json:"norm_ipc"`
	Accuracy     float64   `json:"accuracy"`
	CalcAcc      float64   `json:"calc_acc"`
	LoadAcc      float64   `json:"load_acc"`
	LoadFrac     float64   `json:"load_frac"`
	Mispredicts  int64     `json:"mispredicts"`
	CondBranches int64     `json:"cond_branches"`
	Stats        cpu.Stats `json:"stats"`
}

// MatrixExport is the matrix's JSON body: the run's instruction budget,
// one record per populated cell, and — in the service's body only — the
// joined error of a partial result.
type MatrixExport struct {
	MaxInsts int64    `json:"max_insts"`
	Cells    []Record `json:"cells"`
	Error    string   `json:"error,omitempty"`
}

// Export flattens the populated cells of the matrix into tidy records
// (one per benchmark × depth × mode, suite order). Missing cells are
// skipped, so a partial grid exports exactly what completed.
//
//arvi:det
func (m *Matrix) Export(depths []int) MatrixExport {
	x := MatrixExport{MaxInsts: m.MaxInsts, Cells: make([]Record, 0, m.Len())}
	for _, b := range workload.Names {
		for _, d := range depths {
			base, baseOK := m.Lookup(b, d, Modes[0])
			for _, md := range Modes {
				st, ok := m.Lookup(b, d, md)
				if !ok {
					continue
				}
				var norm *float64
				if baseOK && base.IPC() != 0 {
					n := st.IPC() / base.IPC()
					norm = &n
				}
				x.Cells = append(x.Cells, Record{
					Bench:        b,
					Depth:        d,
					Mode:         md.String(),
					IPC:          st.IPC(),
					NormIPC:      norm,
					Accuracy:     st.PredAccuracy(),
					CalcAcc:      st.ClassAccuracy(cpu.ClassCalculated),
					LoadAcc:      st.ClassAccuracy(cpu.ClassLoad),
					LoadFrac:     st.LoadBranchFraction(),
					Mispredicts:  st.Mispredicts,
					CondBranches: st.CondBranches,
					Stats:        st,
				})
			}
		}
	}
	return x
}

// WriteCSV exports the populated result matrix as tidy CSV (one row per
// benchmark × depth × mode) for external plotting: IPC, normalized IPC,
// accuracy, class accuracies and load-branch fraction.
func (m *Matrix) WriteCSV(w io.Writer, depths []int) error {
	return writeCSV(w, m.Export(depths).Cells)
}

// WriteJSON exports the populated matrix cells as indented JSON, raw
// Stats included, for downstream tooling that wants more than the CSV's
// derived metrics.
func (m *Matrix) WriteJSON(w io.Writer, depths []int) error {
	return writeJSON(w, m.Export(depths))
}

// writeJSON writes a grid's body as indented JSON, newline-terminated —
// byte for byte what the service's encoder sends for the same body.
//
//arvi:det
func writeJSON(w io.Writer, body any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(body)
}

// writeCSV writes records as tidy CSV: one column per scalar field, in
// declaration order, headed by the field's JSON name. Floats render at 4
// decimals and a nil *float64 as an empty field; slice and struct fields
// (member lists, per-thread counts, raw stats) appear only in the JSON.
//
//arvi:det
func writeCSV[R any](w io.Writer, records []R) error {
	t := reflect.TypeFor[R]()
	var cols []int
	var header []string
	for i := 0; i < t.NumField(); i++ {
		if k := t.Field(i).Type.Kind(); k == reflect.Slice || k == reflect.Struct {
			continue
		}
		cols = append(cols, i)
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		header = append(header, name)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(cols))
	for _, r := range records {
		v := reflect.ValueOf(r)
		for j, i := range cols {
			row[j] = csvField(v.Field(i))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvField renders one scalar record field.
func csvField(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		return csvField(v.Elem())
	case reflect.Float64:
		return fmt.Sprintf("%.4f", v.Float())
	}
	return fmt.Sprint(v.Interface())
}
