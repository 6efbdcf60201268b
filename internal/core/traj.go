package core

import (
	"fmt"
	"io"

	"repro/internal/dcd"
	"repro/internal/trr"
	"repro/internal/xtc"
)

// TrajectoryReader abstracts the trajectory format an ingest consumes. Each
// call returns the decoded frame and the encoded bytes it consumed;
// Compressed reports whether decoding pays decompression CPU (XTC does,
// DCD does not — its records are raw floats).
type TrajectoryReader interface {
	ReadFrame() (*xtc.Frame, int64, error)
	Compressed() bool
}

// xtcTrajectory adapts an XTC stream. The scanner frames each frame before
// it is decoded, so the bytes reported consumed are exactly that frame's
// encoded length; a buffered reader's read-ahead would smear them across
// frames and with them the journaled Compressed count at every checkpoint.
type xtcTrajectory struct {
	sc *xtc.Scanner
}

// NewXTCTrajectory wraps a compressed (or raw) XTC stream for ingest.
func NewXTCTrajectory(r io.Reader) TrajectoryReader {
	return &xtcTrajectory{sc: xtc.NewScanner(r)}
}

func (t *xtcTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	blob, err := t.sc.Next()
	if err != nil {
		return nil, 0, err
	}
	f, err := xtc.DecodeFrameBytes(blob)
	return f, int64(len(blob)), err
}

func (t *xtcTrajectory) Compressed() bool { return true }

// dcdTrajectory adapts a DCD stream.
type dcdTrajectory struct {
	r    *dcd.Reader
	last int64
}

// NewDCDTrajectory wraps a DCD stream for ingest.
func NewDCDTrajectory(r io.Reader) (TrajectoryReader, error) {
	d, err := dcd.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &dcdTrajectory{r: d, last: d.BytesConsumed()}, nil
}

func (t *dcdTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	f, err := t.r.ReadFrame()
	consumed := t.r.BytesConsumed() - t.last
	t.last = t.r.BytesConsumed()
	return f, consumed, err
}

func (t *dcdTrajectory) Compressed() bool { return false }

// trrTrajectory adapts a GROMACS TRR stream (full precision, uncompressed;
// velocities and forces are dropped — ADA serves the visualization path).
type trrTrajectory struct {
	r    *trr.Reader
	last int64
}

// NewTRRTrajectory wraps a TRR stream for ingest.
func NewTRRTrajectory(r io.Reader) TrajectoryReader {
	return &trrTrajectory{r: trr.NewReader(r)}
}

func (t *trrTrajectory) ReadFrame() (*xtc.Frame, int64, error) {
	f, err := t.r.ReadFrame()
	consumed := t.r.BytesConsumed() - t.last
	t.last = t.r.BytesConsumed()
	if err != nil {
		return nil, consumed, err
	}
	return f.ToXTC(), consumed, nil
}

func (t *trrTrajectory) Compressed() bool { return false }

// IngestTrajectory is Ingest for any supported trajectory format.
func (a *ADA) IngestTrajectory(logical string, pdbData []byte, tr TrajectoryReader) (*IngestReport, error) {
	span := a.reg.StartSpan("ingest.total")
	defer span.End()
	st, err := a.prepareIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	if _, err := st.run(tr, nil); err != nil {
		st.abort()
		return nil, err
	}
	st.closeAll()
	return st.finish()
}
