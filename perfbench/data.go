package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/xtc"
)

// fixture is one workload's generated input: the structure file, the
// compressed trajectory, and the reference the outputs are checked
// against — the CRC32C of every frame's protein coordinates as the
// trajectory's own decoder yields them, independent of the ADA read path.
type fixture struct {
	pdb     []byte
	xtc     []byte
	frames  int
	protein []int    // atom indices of the protein ("p") subset
	refCRC  []uint32 // per frame: CRC of the decoded protein coordinates
	index   *xtc.Index
}

// generate builds the synthetic system and simulates frames of motion
// seeded by seed. Every frame is decoded back right after encoding so the
// reference reflects XTC quantization.
func generate(sys gpcr.Config, seed int64, frames int) (*fixture, error) {
	s, err := sys.Build()
	if err != nil {
		return nil, err
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, s.Structure); err != nil {
		return nil, err
	}
	cats := make([]pdb.Category, s.Structure.NAtoms())
	for i := range cats {
		cats[i] = s.Structure.Atoms[i].Category
	}
	params := mdsim.DefaultParams()
	params.Seed = seed
	sim, err := mdsim.New(s.Coords, cats, s.Box, params)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		pdb:     pb.Bytes(),
		frames:  frames,
		protein: core.BuildLabels(s.Structure).TagRanges(core.Coarse)[core.TagProtein].Indices(),
	}
	var traj bytes.Buffer
	w := xtc.NewWriter(&traj)
	for i := 0; i < frames; i++ {
		start := traj.Len()
		if err := w.WriteFrame(sim.Step()); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		f, err := xtc.DecodeFrameBytes(traj.Bytes()[start:])
		if err != nil {
			return nil, fmt.Errorf("frame %d: decode: %w", i, err)
		}
		sub, err := f.Subset(fx.protein)
		if err != nil {
			return nil, err
		}
		fx.refCRC = append(fx.refCRC, frameCRC(sub))
	}
	fx.xtc = traj.Bytes()
	fx.index, err = xtc.BuildIndex(bytes.NewReader(fx.xtc), int64(len(fx.xtc)))
	if err != nil {
		return nil, err
	}
	return fx, nil
}

// batches cuts the trajectory into whole-frame batches of n frames.
func (fx *fixture) batches(n int) [][]byte {
	var out [][]byte
	for i := 0; i < fx.frames; i += n {
		j := min(i+n, fx.frames)
		end := fx.index.Offset(j-1) + fx.index.Size(j-1)
		out = append(out, fx.xtc[fx.index.Offset(i):end])
	}
	return out
}

// frameCRC is the CRC32C of a frame's coordinates as little-endian
// float32 bits.
func frameCRC(f *xtc.Frame) uint32 {
	buf := make([]byte, 12*len(f.Coords))
	for i, c := range f.Coords {
		for d := 0; d < 3; d++ {
			binary.LittleEndian.PutUint32(buf[12*i+4*d:], math.Float32bits(c[d]))
		}
	}
	return xtc.CRC32C(buf)
}

// checkFrame reports whether f is frame i of the reference protein subset.
func (fx *fixture) checkFrame(i int, f *xtc.Frame) bool {
	return f != nil && i >= 0 && i < fx.frames && f.NAtoms() == len(fx.protein) && frameCRC(f) == fx.refCRC[i]
}
