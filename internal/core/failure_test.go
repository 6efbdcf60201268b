package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockfs"
	"repro/internal/device"
	"repro/internal/plfs"
	"repro/internal/vfs"
)

// tinyDeviceADA builds an ADA whose SSD backend is a device too small for
// the protein subset.
func tinyDeviceADA(t *testing.T, capacity int64, opts Options) *ADA {
	t.Helper()
	dev := device.Device{
		Name: "tiny", ReadBW: 100 * device.MB, WriteBW: 100 * device.MB,
		Capacity: capacity,
	}
	ssd := blockfs.New("tiny-ssd", dev, nil)
	hdd := vfs.NewMemFS()
	containers, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: ssd, Mount: "/m1"},
		plfs.Backend{Name: "hdd", FS: hdd, Mount: "/m2"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return New(containers, nil, opts)
}

func TestIngestFailsCleanlyOnFullDevice(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 50, 8) // protein subset ~ hundreds of KB
	a := tinyDeviceADA(t, 2*blockfs.BlockSize, Options{})
	_, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj))
	if err == nil {
		t.Fatal("ingest onto a full device should fail")
	}
	if !errors.Is(err, blockfs.ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace in the chain", err)
	}
}

func TestSubsetSurvivesUnrelatedDatasetRemoval(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 200, 2)
	a, _, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/keep", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest("/drop", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if err := a.Remove("/drop"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenSubset("/drop", TagProtein); err == nil {
		t.Error("removed dataset should not open")
	}
	sr, err := a.OpenSubset("/keep", TagProtein)
	if err != nil {
		t.Fatalf("surviving dataset unreadable: %v", err)
	}
	defer sr.Close()
	if _, err := sr.ReadFrame(); err != nil {
		t.Errorf("surviving dataset frame: %v", err)
	}
}

func TestCorruptManifestReportsError(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 300, 1)
	a, ssd, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	// Scribble over the manifest dropping directly on the backend.
	if err := vfs.WriteFile(ssd, "/mnt1/ds/manifest.json", []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenSubset("/ds", TagProtein); err == nil {
		t.Error("corrupt manifest should surface an error")
	}
	if _, err := a.Manifest("/ds"); err == nil {
		t.Error("corrupt manifest should fail to parse")
	}
}

func TestCorruptIndexReportsError(t *testing.T) {
	pdbBytes, traj, _ := testDataset(t, 300, 2)
	a, ssd, _ := newADA(t, nil, Options{})
	if _, err := a.Ingest("/ds", pdbBytes, bytes.NewReader(traj)); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(ssd, "/mnt1/ds/index.p", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OpenSubsetAt("/ds", TagProtein); err == nil {
		t.Error("corrupt frame index should surface an error")
	}
	// The sequential path does not need the index and still works.
	sr, err := a.OpenSubset("/ds", TagProtein)
	if err != nil {
		t.Fatalf("sequential read should survive index corruption: %v", err)
	}
	sr.Close()
}
