package trace

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/prog"
	"repro/internal/vm"
)

// magic identifies the trace format (version 2: fingerprint + count header).
const magic = "DDTTRC02"

// countUnknown is the header count of an EOF-terminated trace. This
// package always writes the exact count; earlier builds wrote
// countUnknown to non-seekable sinks, and Decode still reads such files.
const countUnknown = ^uint64(0)

// maxDeclaredRecords bounds the header count a reader will believe
// (2^32 records ≈ a 100 GiB file). A corrupted count field must fail the
// header check, not size an allocation.
const maxDeclaredRecords = uint64(1) << 32

// headerSize is the fixed on-disk header: magic, program fingerprint,
// record count.
const headerSize = len(magic) + sha256.Size + 8

// recordSize is the fixed on-disk size of one event record: pc, next pc,
// taken flag, effective address, result value, all little-endian.
const recordSize = 4 + 4 + 1 + 8 + 8

// WriteTo serialises the trace in the on-disk format. The record count is
// known up front, so the header always carries it and w need not be
// seekable (a pipe will do). The first write error stops the encoding
// and is returned.
func (d *Decoded) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [headerSize]byte
	fp := d.prog.Fingerprint()
	copy(hdr[:], magic)
	copy(hdr[len(magic):], fp[:])
	binary.LittleEndian.PutUint64(hdr[headerSize-8:], uint64(len(d.recs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	n := int64(headerSize)
	var b [recordSize]byte
	for i := range d.recs {
		r := &d.recs[i]
		binary.LittleEndian.PutUint32(b[0:], r.PC)
		binary.LittleEndian.PutUint32(b[4:], r.Next)
		b[8] = 0
		if r.Taken {
			b[8] = 1
		}
		binary.LittleEndian.PutUint64(b[9:], r.Addr)
		binary.LittleEndian.PutUint64(b[17:], uint64(r.Val))
		if _, err := bw.Write(b[:]); err != nil {
			return n, err
		}
		n += recordSize
	}
	return n, bw.Flush()
}

// Decode reads a whole trace file into memory; p must be the program the
// trace was recorded from (its text supplies the static instructions). A
// trace recorded from a different program, even one of the same length,
// is rejected by fingerprint. Every record is validated once here, so
// cursor replay needs no per-event checks: a file that ends before its
// declared record count (at a record boundary or mid-record), carries
// data after it, or names a pc outside the program text is an error, not
// a shorter trace. A header count of countUnknown means the trace ends
// at EOF.
func Decode(p *prog.Program, r io.Reader) (*Decoded, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:len(magic)])
	}
	fp := p.Fingerprint()
	if !bytes.Equal(hdr[len(magic):len(magic)+sha256.Size], fp[:]) {
		return nil, fmt.Errorf("trace: program mismatch: trace was not recorded from %q", p.Name)
	}
	count := binary.LittleEndian.Uint64(hdr[headerSize-8:])
	if count != countUnknown && count > maxDeclaredRecords {
		return nil, fmt.Errorf("trace: unreasonable record count %d in header", count)
	}
	// The record slice grows as records arrive: the header count is not
	// trusted to size an allocation, so a count that lies about a short
	// file costs what the file holds and surfaces as a truncation error.
	d := &Decoded{prog: p}
	var b [recordSize]byte
	for seq := uint64(0); count == countUnknown || seq < count; seq++ {
		_, err := io.ReadFull(br, b[:])
		switch {
		case err == io.EOF && count == countUnknown:
			return d, nil
		case err == io.EOF:
			return nil, fmt.Errorf("trace: truncated: %d of %d declared records", seq, count)
		case err != nil:
			return nil, fmt.Errorf("trace: record %d: %w", seq, err)
		}
		pc := binary.LittleEndian.Uint32(b[0:])
		if uint64(pc) >= uint64(len(p.Text)) {
			return nil, fmt.Errorf("trace: record %d: pc %d outside program text", seq, pc)
		}
		d.recs = append(d.recs, vm.Rec{
			PC:    pc,
			Next:  binary.LittleEndian.Uint32(b[4:]),
			Taken: b[8] != 0,
			Addr:  binary.LittleEndian.Uint64(b[9:]),
			Val:   int64(binary.LittleEndian.Uint64(b[17:])),
		})
	}
	// All declared records read; anything further is corruption.
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("trace: trailing data after %d declared records", count)
	}
	return d, nil
}
