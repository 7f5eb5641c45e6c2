// Command asmrun assembles a source file and executes it — functionally by
// default, or through the timing simulator with -time. It can also record
// the dynamic trace (-trace) or save the assembled image (-o) for later
// runs.
//
// Usage:
//
//	asmrun prog.s                 # assemble + run functionally
//	asmrun -time -depth 40 prog.s # run through the timing model
//	asmrun -o prog.bin prog.s     # save the assembled program image
//	asmrun -trace prog.trc prog.s # record the dynamic trace
//
// -mode takes the names every other front end takes (baseline or
// 2lvl-2bc-gskew, arvi-current, arvi-loadback, arvi-perfect). An unknown
// mode, a -depth below 1 or a negative -n (0 runs to halt) exits with
// status 2 before anything is assembled. -trace writes the trace with its
// exact record count, to a file or a pipe alike; status lines go to
// stderr, so -trace /dev/stdout writes only the trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	timing := flag.Bool("time", false, "run through the out-of-order timing model")
	depth := flag.Int("depth", 20, "pipeline depth for -time")
	mode := flag.String("mode", "arvi-current", "predictor for -time: baseline arvi-current arvi-loadback arvi-perfect")
	n := flag.Int64("n", 0, "instruction budget (0 = run to halt)")
	out := flag.String("o", "", "write the assembled program image here")
	trc := flag.String("trace", "", "record the dynamic trace here")
	regs := flag.Bool("regs", false, "dump architectural registers after a functional run")
	flag.Parse()

	// The validation rules (and their message text) are shared with the
	// other front ends; see internal/sim/validate.go.
	md, err := sim.ParseMode(*mode)
	if err != nil {
		usage(err)
	}
	for _, err := range []error{sim.ValidateDepth(*depth), sim.ValidateNonNegative("-n", *n)} {
		if err != nil {
			usage(err)
		}
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asmrun [flags] prog.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	name := strings.TrimSuffix(flag.Arg(0), ".s")
	p, err := asm.Assemble(name, string(src))
	if err != nil {
		fatal(err)
	}
	// Status lines go to stderr, so -trace /dev/stdout or -o /dev/stdout
	// writes nothing but the file.
	st := p.StaticStats()
	fmt.Fprintf(os.Stderr, "assembled %s: %d instructions, %d data bytes, entry %d\n",
		p.Name, st.Insts, st.DataBytes, p.Entry)

	if *out != "" {
		writeFile(*out, p)
		fmt.Fprintf(os.Stderr, "wrote image to %s\n", *out)
	}

	if *trc != "" {
		dec, err := trace.RecordAll(p, *n)
		if err != nil {
			fatal(err)
		}
		writeFile(*trc, dec)
		fmt.Fprintf(os.Stderr, "recorded %d events to %s\n", dec.Len(), *trc)
		return
	}

	if *timing {
		cfg := cpu.DefaultConfig(*depth, md)
		cfg.MaxInsts = *n
		stats, err := cpu.Run(p, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("timing: %d instructions, %d cycles, IPC %.4f, branch accuracy %.4f\n",
			stats.Insts, stats.Cycles, stats.IPC(), stats.PredAccuracy())
		return
	}

	machine := vm.New(p)
	ran, err := machine.Run(*n, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("functional: %d instructions retired, halted=%v\n", ran, machine.Halt)
	if *regs {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if v := machine.Regs[r]; v != 0 {
				fmt.Printf("  r%-2d = %d\n", r, v)
			}
		}
	}
}

// writeFile writes w's bytes to a new file at path.
func writeFile(path string, w io.WriterTo) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if _, err := w.WriteTo(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asmrun:", err)
	os.Exit(1)
}

// usage rejects a bad flag value with exit status 2.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "asmrun:", err)
	os.Exit(2)
}
