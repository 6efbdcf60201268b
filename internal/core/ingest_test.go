package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/blockfs"
	"repro/internal/metrics"
	"repro/internal/xtc"
)

// ingestEntry drives one ingest entry point from a structure file and an
// XTC trajectory to a committed dataset.
type ingestEntry struct {
	name string
	// rollsBack marks the one-shot entry points, whose failures remove the
	// container; a resumed or live ingest keeps its staged state instead.
	rollsBack bool
	ingest    func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error)
}

// ingestEntries lists every entry point. cut drops that many bytes from the
// end of the trajectory in the entry's own format. journalPDB is the
// structure ResumeIngest's interrupted ingest was begun with.
func ingestEntries(journalPDB []byte) []ingestEntry {
	xtcIn := func(traj []byte, cut int) io.Reader { return bytes.NewReader(traj[:len(traj)-cut]) }
	return []ingestEntry{
		{"Ingest", true, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			return a.Ingest("/ds", pdbBytes, xtcIn(traj, cut))
		}},
		{"IngestTrajectory/xtc", true, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			return a.IngestTrajectory("/ds", pdbBytes, NewXTCTrajectory(xtcIn(traj, cut)))
		}},
		{"IngestTrajectory/dcd", true, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			data := dcdDataset(t, traj)
			tr, err := NewDCDTrajectory(bytes.NewReader(data[:len(data)-cut]))
			if err != nil {
				t.Fatal(err)
			}
			return a.IngestTrajectory("/ds", pdbBytes, tr)
		}},
		{"IngestWithStats", true, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			return a.IngestWithStats("/ds", pdbBytes, NewXTCTrajectory(xtcIn(traj, cut)))
		}},
		{"ResumeIngest", false, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			// An ingest that died right after its begin record: the resume
			// restarts from frame 0.
			st, err := a.prepareIngest("/ds", journalPDB)
			if err != nil {
				t.Fatal(err)
			}
			st.closeAll()
			st.journal.close()
			return a.ResumeIngest("/ds", pdbBytes, xtcIn(traj, cut))
		}},
		{"Append", false, func(t *testing.T, a *ADA, pdbBytes, traj []byte, cut int) (*IngestReport, error) {
			li, err := a.OpenLiveIngest("/ds", pdbBytes)
			if err != nil {
				return nil, err
			}
			if _, err := li.Append(traj[:len(traj)-cut]); err != nil {
				return nil, err
			}
			return li.Seal()
		}},
	}
}

// TestIngestEntryPoints runs every ingest entry point through the same
// cases: a clean ingest, a trajectory torn inside its last frame, a
// structure with the wrong atom count, a structure file that is not one,
// and a device that fills mid-ingest. Errors must name the failing frame,
// the progress gauge must stop at it, and every entry point must time its
// decodes and writes.
func TestIngestEntryPoints(t *testing.T) {
	const frames = 5
	pdbBytes, traj, _ := testDataset(t, 200, frames)
	otherPDB, _, _ := testDataset(t, 400, 1)
	// A protein subset too large for a three-block device that still holds
	// the container index and journal, so the device fills mid-frame.
	bigPDB, bigTraj, _ := testDataset(t, 25, 12)

	type outcome struct {
		rep *IngestReport
		err error
		reg *metrics.Registry
		a   *ADA
	}
	cases := []struct {
		name  string
		pdb   []byte
		traj  []byte // nil: traj
		cut   int
		tiny  bool // SSD backend three blocks large
		check func(t *testing.T, e ingestEntry, o outcome)
	}{
		{name: "ok", pdb: pdbBytes, check: func(t *testing.T, e ingestEntry, o outcome) {
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.rep.Frames != frames {
				t.Errorf("report frames = %d, want %d", o.rep.Frames, frames)
			}
			if e.name != "IngestTrajectory/dcd" && o.rep.Compressed != int64(len(traj)) {
				t.Errorf("report compressed = %d, want %d", o.rep.Compressed, len(traj))
			}
			checkIngestMetrics(t, o.reg, frames, o.rep.Compressed)
			if got := o.reg.Snapshot().Gauges["ingest.progress_frames"]; got != frames {
				t.Errorf("ingest.progress_frames = %d, want %d", got, frames)
			}
		}},
		{name: "truncated", pdb: pdbBytes, cut: 7, check: func(t *testing.T, e ingestEntry, o outcome) {
			if !errors.Is(o.err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF in the chain", o.err)
			}
			if want := fmt.Sprintf("frame %d:", frames-1); !strings.Contains(o.err.Error(), want) {
				t.Errorf("err = %v, want it to name %q", o.err, want)
			}
			s := o.reg.Snapshot()
			if got := s.Gauges["ingest.progress_frames"]; got != frames-1 {
				t.Errorf("ingest.progress_frames = %d, want %d", got, frames-1)
			}
			if got := s.Histograms["ingest.decode.ns"].Count; got != frames {
				t.Errorf("decode observations = %d, want %d (the torn frame included)", got, frames)
			}
			if got := s.Histograms["ingest.write.ns"].Count; got != frames-1 {
				t.Errorf("write observations = %d, want %d", got, frames-1)
			}
			if e.name == "Append" {
				// The frames before the torn one are published.
				h, err := o.a.LiveHead("/ds")
				if err != nil || h.Frames != frames-1 {
					t.Errorf("live head after a torn append = %+v, %v; want %d frames", h, err, frames-1)
				}
			}
		}},
		{name: "atoms", pdb: otherPDB, check: func(t *testing.T, e ingestEntry, o outcome) {
			if o.err == nil || !strings.Contains(o.err.Error(), "atoms") {
				t.Fatalf("err = %v, want an atom-count mismatch", o.err)
			}
			if got := o.reg.Snapshot().Histograms["ingest.write.ns"].Count; got != 0 {
				t.Errorf("write observations = %d, want 0", got)
			}
		}},
		{name: "junk-pdb", pdb: []byte("junk"), check: func(t *testing.T, e ingestEntry, o outcome) {
			if o.err == nil {
				t.Fatal("junk structure file accepted")
			}
		}},
		{name: "full-device", pdb: bigPDB, traj: bigTraj, tiny: true, check: func(t *testing.T, e ingestEntry, o outcome) {
			if !errors.Is(o.err, blockfs.ErrNoSpace) {
				t.Fatalf("err = %v, want blockfs.ErrNoSpace in the chain", o.err)
			}
			// A live session publishes its head on the small device first,
			// so it fills there; every other entry point fills on a frame.
			if e.name != "Append" && !strings.Contains(o.err.Error(), "subset "+TagProtein) {
				t.Errorf("err = %v, want the protein subset write to fill the device", o.err)
			}
		}},
	}
	for _, c := range cases {
		journalPDB, in := pdbBytes, traj
		if c.traj != nil {
			journalPDB, in = c.pdb, c.traj
		}
		for _, e := range ingestEntries(journalPDB) {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				reg := metrics.NewRegistry()
				a := newMeteredADA(t, reg)
				if c.tiny {
					a = tinyDeviceADA(t, 3*blockfs.BlockSize, Options{Metrics: reg})
				}
				rep, err := e.ingest(t, a, c.pdb, in, c.cut)
				c.check(t, e, outcome{rep, err, reg, a})
				if err != nil && e.rollsBack {
					if names, _ := a.Datasets(); len(names) != 0 {
						t.Errorf("failed ingest left containers %v", names)
					}
				}
			})
		}
	}
}

// TestCheckpointCompressedIsFrameOffset: the Compressed count a checkpoint
// journals is the exact byte offset of the next frame in the input, on a
// trajectory larger than the frame scanner's 64 KiB read-ahead. Resume
// relies on it to rebuild a manifest identical to an uninterrupted ingest.
func TestCheckpointCompressedIsFrameOffset(t *testing.T) {
	const frames = journalCkptEvery + 8
	pdbBytes, traj, _ := testDataset(t, 100, frames)
	if len(traj) <= 64<<10 {
		t.Fatalf("trajectory is %d bytes, want more than 64 KiB", len(traj))
	}
	idx, err := xtc.BuildIndex(bytes.NewReader(traj), int64(len(traj)))
	if err != nil {
		t.Fatal(err)
	}
	want := idx.Offset(journalCkptEvery)

	// ckptAt returns the Compressed count of the checkpoint at frame n.
	ckptAt := func(t *testing.T, a *ADA, n int) int64 {
		t.Helper()
		recs, err := a.readJournal("/ds")
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Type == journalCkpt && rec.Frames == n {
				return rec.Compressed
			}
		}
		t.Fatalf("journal has no checkpoint at frame %d: %+v", n, recs)
		return 0
	}

	t.Run("ResumeIngest", func(t *testing.T) {
		// Resume from frame 0 and fail past the checkpoint: the staged
		// state, journal included, survives the failure.
		a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
		st, err := a.prepareIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		st.closeAll()
		st.journal.close()
		if _, err := a.ResumeIngest("/ds", pdbBytes, bytes.NewReader(traj[:len(traj)-7])); err == nil {
			t.Fatal("torn trajectory accepted")
		}
		if got := ckptAt(t, a, journalCkptEvery); got != want {
			t.Errorf("checkpoint Compressed = %d, frame %d starts at byte %d", got, journalCkptEvery, want)
		}
	})
	t.Run("Append", func(t *testing.T) {
		a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
		li, err := a.OpenLiveIngest("/ds", pdbBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer li.Abort()
		if _, err := li.Append(traj); err != nil {
			t.Fatal(err)
		}
		if got := ckptAt(t, a, journalCkptEvery); got != want {
			t.Errorf("checkpoint Compressed = %d, frame %d starts at byte %d", got, journalCkptEvery, want)
		}
	})
}

// TestHostileFrameHeaderBoundedMemory feeds frame headers claiming far more
// atoms (or blob bytes) than follow them through every decode path. Each
// must fail without allocating what the header claims; the one well-framed
// input passes the Scanner, which does not decode, and fails in decoding.
func TestHostileFrameHeaderBoundedMemory(t *testing.T) {
	const claim = 1 << 27 // ~134M atoms: 1.5 GB of coordinates if believed
	header := func(magic int32, natoms int32, extra ...uint32) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(magic))
		b = binary.BigEndian.AppendUint32(b, uint32(natoms))
		b = append(b, make([]byte, 4*11)...) // step, time, box[9]
		for _, w := range extra {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	// precision (1000.0), minint[3], sizeint[3], smallidx, bloblen.
	compressed := func(blobLen uint32) []uint32 {
		return []uint32{0x447a0000, 0, 0, 0, 1, 1, 1, 9, blobLen}
	}
	inputs := []struct {
		name   string
		data   []byte
		framed bool // every byte the header claims is present
	}{
		{"raw", header(xtc.MagicRaw, claim), false},
		{"compressed-blob-missing", header(xtc.MagicCompressed, claim, compressed(0xfffffff0)...), false},
		{"compressed-blob-short", append(header(xtc.MagicCompressed, claim, compressed(4)...), 0, 0, 0, 0), true},
	}

	pdbBytes, _, _ := testDataset(t, 200, 1)
	decoders := []struct {
		name   string
		decode func(t *testing.T, data []byte) error
	}{
		{"Reader", func(t *testing.T, data []byte) error {
			_, err := xtc.NewReader(bytes.NewReader(data)).ReadFrame()
			return err
		}},
		{"Scanner", func(t *testing.T, data []byte) error {
			_, err := xtc.NewScanner(bytes.NewReader(data)).Next()
			return err
		}},
		{"DecodeFrameBytes", func(t *testing.T, data []byte) error {
			_, err := xtc.DecodeFrameBytes(data)
			return err
		}},
		{"Append", func(t *testing.T, data []byte) error {
			a, _, _ := newADA(t, nil, Options{Metrics: metrics.NewRegistry()})
			li, err := a.OpenLiveIngest("/ds", pdbBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer li.Abort()
			_, err = li.Append(data)
			return err
		}},
	}
	for _, in := range inputs {
		for _, d := range decoders {
			t.Run(in.name+"/"+d.name, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := d.decode(t, in.data)
				runtime.ReadMemStats(&after)
				if wantErr := !(in.framed && d.name == "Scanner"); (err != nil) != wantErr {
					t.Fatalf("err = %v, want an error: %v", err, wantErr)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew >= 4<<20 {
					t.Errorf("failing cost %d bytes of allocation, want under 4 MiB", grew)
				}
			})
		}
	}
}
