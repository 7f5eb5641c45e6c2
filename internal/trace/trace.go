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

// countUnknown is the header count for traces streamed to a non-seekable
// sink, whose length is only discovered at EOF.
const countUnknown = ^uint64(0)

// maxDeclaredRecords bounds the header count a reader will believe
// (2^32 records ≈ a 100 GiB file). A corrupted count field must fail the
// header check, not size an allocation.
const maxDeclaredRecords = uint64(1) << 32

// headerSize is the fixed on-disk header: magic, program fingerprint,
// record count.
const headerSize = len(magic) + sha256.Size + 8

// countOffset is where the record count lives inside the header.
const countOffset = int64(len(magic) + sha256.Size)

// recordSize is the fixed on-disk size of one event record.
const recordSize = 4 + 4 + 1 + 8 + 8

// putRecord encodes one event into a fixed-size record.
func putRecord(rec *[recordSize]byte, ev *vm.Event) {
	binary.LittleEndian.PutUint32(rec[0:], uint32(ev.PC))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ev.NextPC))
	if ev.Taken {
		rec[8] = 1
	} else {
		rec[8] = 0
	}
	binary.LittleEndian.PutUint64(rec[9:], ev.Addr)
	binary.LittleEndian.PutUint64(rec[17:], uint64(ev.Val))
}

// Writer streams events into a trace.
type Writer struct {
	w  io.Writer
	bw *bufio.Writer
	n  int64
}

// writeHeader emits the trace header: magic, program fingerprint, record
// count (countUnknown when the length is not yet known).
func writeHeader(bw *bufio.Writer, p *prog.Program, count uint64) error {
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	fp := p.Fingerprint()
	if _, err := bw.Write(fp[:]); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	_, err := bw.Write(cnt[:])
	return err
}

// NewWriter starts a trace of program p on w. If w is an io.WriteSeeker
// (e.g. a file), Flush patches the exact record count into the header so
// readers can detect truncation; on a pure stream the count stays unknown
// and the trace is EOF-terminated.
func NewWriter(p *prog.Program, w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, p, countUnknown); err != nil {
		return nil, err
	}
	return &Writer{w: w, bw: bw}, nil
}

// Append records one event.
func (t *Writer) Append(ev *vm.Event) error {
	var rec [recordSize]byte
	putRecord(&rec, ev)
	if _, err := t.bw.Write(rec[:]); err != nil {
		return err
	}
	t.n++
	return nil
}

// Len returns the number of events appended so far.
func (t *Writer) Len() int64 { return t.n }

// Flush drains buffered records to the underlying writer and, when the
// sink is seekable, stamps the final record count into the header.
func (t *Writer) Flush() error {
	if err := t.bw.Flush(); err != nil {
		return err
	}
	ws, ok := t.w.(io.WriteSeeker)
	if !ok {
		return nil
	}
	if _, err := ws.Seek(countOffset, io.SeekStart); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(t.n))
	if _, err := ws.Write(cnt[:]); err != nil {
		return err
	}
	_, err := ws.Seek(0, io.SeekEnd)
	return err
}

// Record runs the program on a fresh VM for up to max instructions
// (0 = to halt), streaming the trace into w. It returns the number of
// instructions recorded; a write error stops the run and is returned.
func Record(p *prog.Program, max int64, w io.Writer) (int64, error) {
	tw, err := NewWriter(p, w)
	if err != nil {
		return 0, err
	}
	n, err := vm.New(p).Run(max, tw.Append)
	if err != nil {
		return n, err
	}
	return n, tw.Flush()
}

// Reader replays a recorded trace as a cpu.EventSource.
type Reader struct {
	br    *bufio.Reader
	prog  *prog.Program
	seq   int64
	count uint64 // countUnknown when the trace is EOF-terminated
}

// NewReader opens a trace over r; p must be the program the trace was
// recorded from (its text supplies the static instructions). A trace
// recorded from a different program — even one of the same length — is
// rejected by fingerprint.
func NewReader(p *prog.Program, r io.Reader) (*Reader, error) {
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
	count := binary.LittleEndian.Uint64(hdr[countOffset:])
	if count != countUnknown && count > maxDeclaredRecords {
		return nil, fmt.Errorf("trace: unreasonable record count %d in header", count)
	}
	return &Reader{br: br, prog: p, count: count}, nil
}

// Len returns the record count declared in the header, or -1 when the
// trace is EOF-terminated (recorded to a non-seekable sink).
func (t *Reader) Len() int64 {
	if t.count == countUnknown {
		return -1
	}
	return int64(t.count)
}

// Next fills ev with the next trace record, returning io.EOF at the end.
// It implements cpu.EventSource. A file that ends before the declared
// record count — or mid-record — is reported as an error, not as a clean
// end of trace.
func (t *Reader) Next(ev *vm.Event) error {
	if t.count != countUnknown && uint64(t.seq) >= t.count {
		// All declared records consumed; anything further is corruption.
		if _, err := t.br.ReadByte(); err == nil {
			return fmt.Errorf("trace: trailing data after %d declared records", t.count)
		}
		return io.EOF
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(t.br, rec[:]); err != nil {
		if err == io.EOF {
			if t.count != countUnknown {
				return fmt.Errorf("trace: truncated: %d of %d declared records", t.seq, t.count)
			}
			return io.EOF
		}
		return fmt.Errorf("trace: record %d: %w", t.seq, err)
	}
	pc := int(binary.LittleEndian.Uint32(rec[0:]))
	if pc < 0 || pc >= len(t.prog.Text) {
		return fmt.Errorf("trace: record %d: pc %d outside program text", t.seq, pc)
	}
	*ev = vm.Event{
		Seq:    t.seq,
		PC:     pc,
		Inst:   t.prog.Text[pc],
		NextPC: int(binary.LittleEndian.Uint32(rec[4:])),
		Taken:  rec[8] != 0,
		Addr:   binary.LittleEndian.Uint64(rec[9:]),
		Val:    int64(binary.LittleEndian.Uint64(rec[17:])),
	}
	t.seq++
	return nil
}
