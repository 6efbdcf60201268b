package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/gpcr"
	"repro/internal/mdsim"
	"repro/internal/pdb"
	"repro/internal/plfs"
	"repro/internal/sim"
	"repro/internal/vfs"
	"repro/internal/xtc"
)

// testDataset builds a small synthetic dataset: pdb bytes + a compressed
// trajectory stream with the given frame count.
func testDataset(t testing.TB, scale, frames int) (pdbBytes []byte, traj []byte, sys *gpcr.System) {
	t.Helper()
	sys, err := gpcr.Scaled(scale).Build()
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	if err := pdb.Write(&pb, sys.Structure); err != nil {
		t.Fatal(err)
	}
	cats := make([]pdb.Category, sys.Structure.NAtoms())
	for i := range cats {
		cats[i] = sys.Structure.Atoms[i].Category
	}
	s, err := mdsim.New(sys.Coords, cats, sys.Box, mdsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	w := xtc.NewWriter(&tb)
	if err := s.WriteTrajectory(w, frames); err != nil {
		t.Fatal(err)
	}
	return pb.Bytes(), tb.Bytes(), sys
}

func newADA(t testing.TB, env *sim.Env, opts Options) (*ADA, *vfs.MemFS, *vfs.MemFS) {
	t.Helper()
	ssd := vfs.NewMemFS()
	hdd := vfs.NewMemFS()
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/mnt1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/mnt2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(containers, env, opts), ssd, hdd
}

func TestIngestCoarse(t *testing.T) {
	pdbBytes, traj, sys := testDataset(t, 200, 4)
	a, ssd, hdd := newADA(t, nil, Options{})
	rep, err := a.Ingest("/bar.xtc", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 4 {
		t.Errorf("frames = %d", rep.Frames)
	}
	if rep.NAtoms != sys.Structure.NAtoms() {
		t.Errorf("natoms = %d", rep.NAtoms)
	}
	if rep.Compressed != int64(len(traj)) {
		t.Errorf("compressed = %d, want %d", rep.Compressed, len(traj))
	}
	if rep.Raw != 4*xtc.RawFrameSize(rep.NAtoms) {
		t.Errorf("raw = %d", rep.Raw)
	}
	if len(rep.Subsets) != 2 || rep.Subsets[TagProtein] == 0 || rep.Subsets[TagMisc] == 0 {
		t.Errorf("subsets = %v", rep.Subsets)
	}

	// Placement: protein dropping on the ssd mount, misc on hdd.
	if !vfs.Exists(ssd, "/mnt1/bar.xtc/subset.p") {
		t.Error("protein subset not on ssd backend")
	}
	if !vfs.Exists(hdd, "/mnt2/bar.xtc/subset.m") {
		t.Error("misc subset not on hdd backend")
	}
	// The label file, structure and manifest live with the active data.
	for _, name := range []string{"labels.json", "manifest.json", "structure.pdb"} {
		if !vfs.Exists(ssd, "/mnt1/bar.xtc/"+name) {
			t.Errorf("%s not on ssd backend", name)
		}
	}
}

func TestIngestManifest(t *testing.T) {
	pdbBytes, traj, sys := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	m, err := a.Manifest("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if m.Frames != 3 || m.NAtoms != sys.Structure.NAtoms() || m.Granularity != "coarse" {
		t.Errorf("manifest = %+v", m)
	}
	counts := sys.Structure.CategoryCounts()
	if m.Subsets[TagProtein].NAtoms != counts[pdb.Protein] {
		t.Errorf("p natoms = %d, want %d", m.Subsets[TagProtein].NAtoms, counts[pdb.Protein])
	}
	if m.Subsets[TagMisc].NAtoms != m.NAtoms-counts[pdb.Protein] {
		t.Errorf("m natoms = %d", m.Subsets[TagMisc].NAtoms)
	}
	if m.Subsets[TagProtein].Backend != "ssd" || m.Subsets[TagMisc].Backend != "hdd" {
		t.Errorf("placement = %+v", m.Placement)
	}
}

func TestSubsetReadMatchesOriginal(t *testing.T) {
	pdbBytes, traj, sys := testDataset(t, 200, 5)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}

	// Decode the original trajectory for reference.
	orig, err := xtc.NewReader(bytes.NewReader(traj)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	idx := sr.Ranges.Indices()
	counts := sys.Structure.CategoryCounts()
	if len(idx) != counts[pdb.Protein] {
		t.Fatalf("subset covers %d atoms, want %d", len(idx), counts[pdb.Protein])
	}
	tol := xtc.MaxError(xtc.DefaultPrecision) + 1e-6
	for k := 0; ; k++ {
		sub, err := sr.ReadFrame()
		if err == io.EOF {
			if k != 5 {
				t.Fatalf("subset has %d frames, want 5", k)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if sub.Step != orig[k].Step {
			t.Errorf("frame %d step = %d, want %d", k, sub.Step, orig[k].Step)
		}
		for j, atom := range idx {
			for d := 0; d < 3; d++ {
				diff := math.Abs(float64(sub.Coords[j][d] - orig[k].Coords[atom][d]))
				if diff > tol {
					t.Fatalf("frame %d atom %d dim %d: diff %g", k, atom, d, diff)
				}
			}
		}
	}
}

func TestOpenFullReassembles(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	a, _, _ := newADA(t, nil, Options{Granularity: Fine})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	orig, err := xtc.NewReader(bytes.NewReader(traj)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := a.OpenFull("/ds")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	tol := xtc.MaxError(xtc.DefaultPrecision) + 1e-6
	for k := 0; ; k++ {
		full, err := fr.ReadFrame()
		if err == io.EOF {
			if k != 3 {
				t.Fatalf("full reader has %d frames", k)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if full.NAtoms() != orig[k].NAtoms() {
			t.Fatalf("frame %d natoms = %d", k, full.NAtoms())
		}
		for i := range full.Coords {
			for d := 0; d < 3; d++ {
				diff := math.Abs(float64(full.Coords[i][d] - orig[k].Coords[i][d]))
				if diff > tol {
					t.Fatalf("frame %d atom %d: diff %g", k, i, diff)
				}
			}
		}
	}
}

func TestOpenSubsetUnknownTag(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 400, 1)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenSubset("/ds", "water"); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("err = %v, want ErrUnknownTag", err)
	}
	if _, err := a.OpenSubset("/missing", TagProtein); err == nil {
		t.Error("missing dataset should fail")
	}
}

func TestFineGranularityPlacement(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 2)
	a, ssd, hdd := newADA(t, nil, Options{Granularity: Fine})
	rep, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	// protein + ligand active -> ssd; water/lipid/ion -> hdd.
	for tag := range rep.Subsets {
		switch tag {
		case "protein", "ligand":
			if !vfs.Exists(ssd, "/mnt1/ds/subset."+tag) {
				t.Errorf("%s should be on ssd", tag)
			}
		default:
			if !vfs.Exists(hdd, "/mnt2/ds/subset."+tag) {
				t.Errorf("%s should be on hdd", tag)
			}
		}
	}
}

func TestIngestChargesStorageCPU(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 3)
	env := sim.NewEnv()
	a, _, _ := newADA(t, env, Options{})
	rep, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	cost := DefaultStorageCost()
	wantDecomp := cost.decompressTime(rep.Compressed)
	if got := env.Profile.Get("storage.cpu.decompress"); math.Abs(got-wantDecomp) > 1e-9 {
		t.Errorf("decompress charge = %v, want %v", got, wantDecomp)
	}
	if env.Profile.Get("storage.cpu.categorize") <= 0 {
		t.Error("categorize not charged")
	}
	if env.Profile.Get("storage.cpu.pdbparse") <= 0 {
		t.Error("pdbparse not charged")
	}
	if rep.Elapsed <= 0 {
		t.Error("report elapsed not set")
	}
	// Pre-processing CPU moved to storage nodes: the compute-node buckets
	// must not exist.
	if env.Profile.TotalPrefix("compute.") != 0 {
		t.Error("ingest charged compute-node CPU")
	}
}

func TestIngestErrors(t *testing.T) {
	a, _, _ := newADA(t, nil, Options{})
	// Garbage pdb.
	if _, err := a.Ingest("/x", []byte("ATOM  garbage"), bytes.NewReader(nil)); err == nil {
		t.Error("garbage pdb should fail")
	}
	// Empty structure.
	if _, err := a.Ingest("/x", []byte("REMARK nothing\n"), bytes.NewReader(nil)); err == nil {
		t.Error("empty structure should fail")
	}
	// Atom count mismatch between pdb and trajectory.
	pdbBytes, _, _ := testDataset(t, 400, 1)
	_, traj2, _ := testDataset(t, 200, 1)
	if _, err := a.Ingest("/x", pdbBytes, bytes.NewReader(traj2)); err == nil {
		t.Error("atom count mismatch should fail")
	}
	// Truncated trajectory.
	pdbBytes3, traj3, _ := testDataset(t, 400, 2)
	if _, err := a.Ingest("/y", pdbBytes3, bytes.NewReader(traj3[:len(traj3)-10])); err == nil {
		t.Error("truncated trajectory should fail")
	}
}

func TestIsTargetFile(t *testing.T) {
	a, _, _ := newADA(t, nil, Options{})
	for name, want := range map[string]bool{
		"/data/bar.xtc": true,
		"/data/foo.PDB": true,
		"/data/out.log": false,
		"/data/x.txt":   false,
	} {
		if got := a.IsTargetFile(name); got != want {
			t.Errorf("IsTargetFile(%s) = %v", name, got)
		}
	}
}

func TestLabelsAndStructureRecoverable(t *testing.T) {
	pdbBytes, traj, sys := testDataset(t, 300, 1)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	ls, err := a.Labels("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if ls.NAtoms != sys.Structure.NAtoms() {
		t.Errorf("labels natoms = %d", ls.NAtoms)
	}
	got, err := a.StructureBytes("/ds")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pdbBytes) {
		t.Error("structure bytes differ")
	}
}

func TestSubsetBytesSmallerThanRaw(t *testing.T) {
	// The whole point: the protein subset ADA serves is much smaller than
	// the raw dataset (Table 2's ADA column vs Raw column).
	pdbBytes, traj, sys := testDataset(t, 100, 2)
	a, _, _ := newADA(t, nil, Options{})
	rep, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(rep.Subsets[TagProtein]) / float64(rep.Raw)
	want := sys.Config.ProteinFraction()
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("protein byte fraction = %.3f, composition fraction = %.3f", frac, want)
	}
}

// TestSubsetWriterFrameAllocs bounds the steady-state allocation cost of the
// per-subset write path: with the SubsetInto scratch and pooled encode
// buffers, splitting and appending one frame must not allocate per frame
// (modulo amortized growth of the output file).
func TestSubsetWriterFrameAllocs(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 2)
	a, _, _ := newADA(t, nil, Options{})
	st, err := a.prepareIngest("/ds", pdbBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer st.abort()
	frame, err := xtc.NewReader(bytes.NewReader(traj)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	sw := st.writers[0]
	for i := 0; i < 4; i++ {
		if err := sw.writeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := sw.writeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	// MemFS doubles its backing array as the dropping grows, so a fraction
	// of runs see one allocation; anything at or above one alloc per frame
	// means the scratch reuse regressed.
	if avg >= 1 {
		t.Errorf("subsetWriter.writeFrame steady state = %.2f allocs/frame, want < 1", avg)
	}
}
