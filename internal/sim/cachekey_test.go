package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/smt"
	"repro/internal/workload"
)

// perturb returns a copy of v that differs from it: a number moves by
// one, a bool flips, a string and a slice grow by one element. ok is false
// for a kind it cannot perturb.
func perturb(v reflect.Value) (out reflect.Value, ok bool) {
	out = reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Bool:
		out.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out.SetUint(v.Uint() + 1)
	case reflect.String:
		out.SetString(v.String() + "x")
	case reflect.Slice:
		grown := reflect.MakeSlice(v.Type(), v.Len(), v.Len()+1)
		reflect.Copy(grown, v)
		out.Set(reflect.Append(grown, reflect.Zero(v.Type().Elem())))
	default:
		return out, false
	}
	return out, true
}

// keyLeaf is one leaf field of a keyed struct: its dotted path below the
// struct and its reflect index path.
type keyLeaf struct {
	path     string
	index    []int
	exported bool
}

// keyAlias is a pair of values of one field that name the same run, so
// they must share a key.
type keyAlias struct {
	path   string
	a, b   any
	reason string
}

// keyLeaves lists every leaf field of struct type t, descending into
// nested struct fields.
func keyLeaves(t reflect.Type, prefix string, index []int) []keyLeaf {
	var out []keyLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path, idx := prefix+f.Name, append(slices.Clone(index), i)
		if f.Type.Kind() == reflect.Struct && f.IsExported() {
			out = append(out, keyLeaves(f.Type, path+".", idx)...)
			continue
		}
		out = append(out, keyLeaf{path: path, index: idx, exported: f.IsExported()})
	}
	return out
}

// TestCacheKeyCoversEveryField is the cache key's completeness check: a
// field that can change a cell's stats must change its key, or a cache
// serves one configuration's stats for another. For each keyed type it
// perturbs every exported leaf field of a base value, the nested
// cpu.Config.ARVI, SMTStudy.Mix and .Config and VPredStudy.Params
// included, and requires CacheKey or StudyKey to move. A field that
// leaves the key alone must be exempted here with the reason it cannot
// change the stats; an unexported field must be exempted too, because the
// test cannot set it. A new field therefore fails this test until it is
// keyed or exempted. Aliases pin the value pairs a key deliberately
// unifies: two spellings of one run must share one entry.
func TestCacheKeyCoversEveryField(t *testing.T) {
	spec := Spec{Bench: "gcc", Depth: 20, Mode: cpu.PredARVICurrent, MaxInsts: 5000}
	vp := func(selective bool) VPredStudy {
		return VPredStudy{Bench: "gcc", Predictor: "stride", Selective: selective, Params: DefaultVPredParams(5000)}
	}
	studyKey := func(s Study) string {
		k, err := StudyKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	const vpredBench = "the pre-resolved benchmark is a cache of Bench; the key hashes its program fingerprint"
	cases := []struct {
		name    string
		base    any
		key     func(v any) string
		exempt  map[string]string
		aliases []keyAlias
	}{
		{
			name: "Spec", base: spec,
			key: func(v any) string { s := v.(Spec); return CacheKey(s, s.Config()) },
			aliases: []keyAlias{
				{"ConfThreshold", uint8(0), uint8(8), "0 means the paper default, 8 (Spec.ConfThreshold)"},
				{"MaxInsts", int64(0), int64(DefaultMaxInsts), "0 means DefaultMaxInsts (Spec.Config)"},
			},
		},
		{
			name: "cpu.Config", base: spec.Config(),
			key: func(v any) string { return CacheKey(spec, v.(cpu.Config)) },
		},
		{
			name: "SMTStudy",
			base: SMTStudy{Mix: workload.MixByName("ijpeg+li"), Policy: smt.ICOUNT, Config: smt.DefaultConfig()},
			key:  func(v any) string { return studyKey(v.(SMTStudy)) },
			exempt: map[string]string{
				"Mix.Desc": "a mix's description is display text; the study runs its member benchmarks",
				"benches":  "the pre-resolved members are a cache of Mix.Benches; the key hashes their program fingerprints",
			},
		},
		{
			name: "VPredStudy (all instructions)", base: vp(false),
			key: func(v any) string { return studyKey(v.(VPredStudy)) },
			exempt: map[string]string{
				"Params.DepThreshold": "an all-instructions cell predicts every value-producing instruction; the cut applies only to selective cells",
				"bench":               vpredBench,
			},
		},
		{
			name: "VPredStudy (selective)", base: vp(true),
			key:    func(v any) string { return studyKey(v.(VPredStudy)) },
			exempt: map[string]string{"bench": vpredBench},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := reflect.ValueOf(tc.base)
			baseKey := tc.key(tc.base)
			used := map[string]bool{}
			for _, leaf := range keyLeaves(base.Type(), "", nil) {
				if _, ok := tc.exempt[leaf.path]; ok {
					used[leaf.path] = true
					continue
				}
				if !leaf.exported {
					t.Errorf("%s: unexported field neither keyed nor exempted (the test cannot perturb it)", leaf.path)
					continue
				}
				v := reflect.New(base.Type()).Elem()
				v.Set(base)
				f := v.FieldByIndex(leaf.index)
				p, ok := perturb(f)
				if !ok {
					t.Errorf("%s: cannot perturb a %s; teach perturb the kind or exempt the field", leaf.path, f.Kind())
					continue
				}
				f.Set(p)
				if tc.key(v.Interface()) == baseKey {
					t.Errorf("%s: changing it from %v to %v leaves the key unchanged", leaf.path, base.FieldByIndex(leaf.index), p)
				}
			}
			for path := range tc.exempt {
				if !used[path] {
					t.Errorf("exemption %s names no field", path)
				}
			}
			for _, al := range tc.aliases {
				keys := make([]string, 2)
				for i, x := range []any{al.a, al.b} {
					v := reflect.New(base.Type()).Elem()
					v.Set(base)
					v.FieldByName(al.path).Set(reflect.ValueOf(x))
					keys[i] = tc.key(v.Interface())
				}
				if keys[0] != keys[1] {
					t.Errorf("%s %v and %v must share a key: %s", al.path, al.a, al.b, al.reason)
				}
			}
		})
	}
}
