package workload

import (
	"testing"

	"repro/internal/vm"
)

// runToHalt executes the benchmark functionally and returns dynamic counts.
func runToHalt(t *testing.T, b Benchmark, max int64) (insts, branches, taken, loads int64) {
	t.Helper()
	machine := vm.New(b.Prog)
	n, err := machine.Run(max, func(e *vm.Event) error {
		if e.Inst.IsCondBranch() {
			branches++
			if e.Taken {
				taken++
			}
		}
		if e.Inst.IsLoad() {
			loads++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return n, branches, taken, loads
}

func TestAllBenchmarksAssembleAndValidate(t *testing.T) {
	for _, b := range All() {
		if err := b.Prog.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if b.Desc == "" {
			t.Errorf("%s: missing description", b.Name)
		}
	}
}

func TestSuiteOrderMatchesPaper(t *testing.T) {
	want := []string{"gcc", "compress", "go", "ijpeg", "li", "m88ksim", "perl", "vortex"}
	if len(Names) != len(want) {
		t.Fatalf("suite size = %d", len(Names))
	}
	for i, n := range want {
		if Names[i] != n {
			t.Errorf("Names[%d] = %s, want %s", i, Names[i], n)
		}
	}
}

// TestLookup pins Lookup's non-panicking contract for user-supplied names:
// every suite member resolves to a built benchmark, everything else — the
// empty string, case variants, whitespace, near-misses — reports !ok.
func TestLookup(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"gcc", true},
		{"compress", true},
		{"go", true},
		{"ijpeg", true},
		{"li", true},
		{"m88ksim", true},
		{"perl", true},
		{"vortex", true},
		{"", false},
		{"nosuch", false},
		{"GCC", false},  // lookups are case-sensitive
		{"gcc ", false}, // no trimming
		{" li", false},
		{"m88k", false}, // prefixes are not names
		{"vortexx", false},
		{"spec95", false},
	}
	for _, c := range cases {
		b, ok := Lookup(c.name)
		if ok != c.ok {
			t.Errorf("Lookup(%q) ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if !c.ok {
			if b.Prog != nil || b.Name != "" {
				t.Errorf("Lookup(%q) returned a non-zero benchmark on miss: %+v", c.name, b)
			}
			continue
		}
		if b.Name != c.name {
			t.Errorf("Lookup(%q).Name = %q", c.name, b.Name)
		}
		if b.Prog == nil {
			t.Errorf("Lookup(%q) returned nil program", c.name)
		} else if err := b.Prog.Validate(); err != nil {
			t.Errorf("Lookup(%q) program invalid: %v", c.name, err)
		}
	}
}

// TestLookupCoversNames keeps Lookup and the Names list in sync: a
// benchmark added to one but not the other breaks sweeps silently.
func TestLookupCoversNames(t *testing.T) {
	for _, n := range Names {
		if _, ok := Lookup(n); !ok {
			t.Errorf("suite name %q not resolvable via Lookup", n)
		}
	}
}

func TestByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ByName on unknown benchmark must panic")
		}
	}()
	ByName("nosuch")
}

func TestBenchmarksHaltWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full functional runs are not short")
	}
	for _, b := range All() {
		machine := vm.New(b.Prog)
		n, err := machine.Run(12_000_000, nil)
		if err != nil {
			t.Errorf("%s: fault after %d insts: %v", b.Name, n, err)
			continue
		}
		if !machine.Halt {
			t.Errorf("%s: did not halt within 12M instructions", b.Name)
		}
		if n < 200_000 {
			t.Errorf("%s: only %d dynamic instructions; too short for steady state", b.Name, n)
		}
	}
}

func TestBranchAndLoadMix(t *testing.T) {
	// Every workload must exercise conditional branches (>= 5% of the
	// dynamic mix) and loads, since the paper's study is about
	// load-evaluate-branch behaviour.
	for _, b := range All() {
		insts, branches, taken, loads := runToHalt(t, b, 400_000)
		if insts == 0 {
			t.Fatalf("%s: no instructions", b.Name)
		}
		if f := float64(branches) / float64(insts); f < 0.05 {
			t.Errorf("%s: conditional-branch fraction %.3f too low", b.Name, f)
		}
		if loads == 0 {
			t.Errorf("%s: no loads executed", b.Name)
		}
		if taken == 0 || taken == branches {
			t.Errorf("%s: degenerate branch outcomes (%d/%d taken)", b.Name, taken, branches)
		}
	}
}

func TestM88ksimLookupAlwaysHits(t *testing.T) {
	// Every key 0..255 is present, so the miss path must never trigger:
	// r16 stays 0 while hits (r15) accumulate.
	b := M88ksim()
	machine := vm.New(b.Prog)
	if _, err := machine.Run(2_000_000, nil); err != nil {
		t.Fatal(err)
	}
	if machine.Regs[16] != 0 {
		t.Errorf("misses = %d, want 0", machine.Regs[16])
	}
	if machine.Regs[15] == 0 {
		t.Error("no hits recorded")
	}
}

func TestCompressDictionaryActivity(t *testing.T) {
	b := Compress()
	machine := vm.New(b.Prog)
	if _, err := machine.Run(3_000_000, nil); err != nil {
		t.Fatal(err)
	}
	// Both matches (r17) and inserts (r18) must occur.
	if machine.Regs[17] == 0 || machine.Regs[18] == 0 {
		t.Errorf("matches=%d inserts=%d; both must be nonzero",
			machine.Regs[17], machine.Regs[18])
	}
}

func TestVortexRarePaths(t *testing.T) {
	b := Vortex()
	machine := vm.New(b.Prog)
	if _, err := machine.Run(3_000_000, nil); err != nil {
		t.Fatal(err)
	}
	valid, special, invalid := machine.Regs[15], machine.Regs[16], machine.Regs[17]
	if valid == 0 || special == 0 || invalid == 0 {
		t.Errorf("paths: valid=%d special=%d invalid=%d; all must trigger",
			valid, special, invalid)
	}
	if special > valid/4 || invalid > valid/4 {
		t.Errorf("rare paths not rare: valid=%d special=%d invalid=%d",
			valid, special, invalid)
	}
}

func TestDeterminism(t *testing.T) {
	// Two builds of the same benchmark must execute identically.
	a, b := Compress(), Compress()
	ma, mb := vm.New(a.Prog), vm.New(b.Prog)
	na, _ := ma.Run(100_000, nil)
	nb, _ := mb.Run(100_000, nil)
	if na != nb || ma.Regs != mb.Regs {
		t.Error("benchmark construction is not deterministic")
	}
}
