package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Crash-consistent ingest.
//
// An in-flight ingest never touches a final dropping name. Every payload is
// written under a "staging." name while an append-only journal dropping
// records what the ingest is doing:
//
//	begin  — identity of the ingest: tags, backends, atom ranges
//	ckpt   — durable high-water mark: frames, per-subset bytes + CRC32C
//	commit — the full manifest plus the list of staged droppings
//
// Commit then renames every staged dropping to its final name and publishes
// the manifest last; the manifest rename is the single atomic commit point
// readers gate on. A crash at any op therefore leaves the container in
// exactly one of three states: invisible to readers (no manifest), fully
// consistent (manifest present), or mid-commit with a replayable journal.
// Recover classifies each container and rolls it back, replays the commit,
// or sweeps leftovers; ResumeIngest instead continues an interrupted ingest
// from its last checkpoint.

// Journal record types.
const (
	journalBegin  = "begin"
	journalCkpt   = "ckpt"
	journalCommit = "commit"
)

// journalCkptEvery is the serial ingest checkpoint interval in frames.
const journalCkptEvery = 32

// journalRecord is one line of the ingest journal.
type journalRecord struct {
	Type string `json:"type"`
	// begin fields. Live marks a streaming ingest (OpenLiveIngest): the
	// dataset is expected to be mid-append indefinitely, so Recover
	// preserves the checkpointed prefix instead of rolling it back.
	Logical     string       `json:"logical,omitempty"`
	Granularity string       `json:"granularity,omitempty"`
	NAtoms      int          `json:"natoms,omitempty"`
	Tags        []journalTag `json:"tags,omitempty"`
	Live        bool         `json:"live,omitempty"`
	// ckpt fields.
	Frames     int                      `json:"frames,omitempty"`
	Compressed int64                    `json:"compressed,omitempty"`
	Raw        int64                    `json:"raw,omitempty"`
	Subsets    map[string]journalSubset `json:"subsets,omitempty"`
	// commit fields.
	Staged   []string  `json:"staged,omitempty"`
	Manifest *Manifest `json:"manifest,omitempty"`
}

// journalTag names one subset the ingest is producing.
type journalTag struct {
	Tag     string `json:"tag"`
	Backend string `json:"backend"`
	NAtoms  int    `json:"natoms"`
	Ranges  string `json:"ranges"`
}

// journalSubset is one subset's durable high-water mark at a checkpoint.
type journalSubset struct {
	Bytes int64  `json:"bytes"`
	CRC   uint32 `json:"crc"`
}

// journalWriter appends records to the open journal dropping.
type journalWriter struct {
	f vfs.File
}

func (a *ADA) openJournal(logical string) (*journalWriter, error) {
	// The journal lives on the canonical (first) backend, beside the
	// container index.
	f, err := a.containers.CreateDropping(logical, droppingJournal, a.containers.Backends()[0])
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

func (j *journalWriter) append(rec *journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := j.f.Write(data); err != nil {
		return fmt.Errorf("core: journal: %w", err)
	}
	return nil
}

func (j *journalWriter) close() error { return j.f.Close() }

// readJournal parses a container's journal. A torn final line (the crash
// landed mid-append) is silently dropped — everything before it is intact
// by construction.
func (a *ADA) readJournal(logical string) ([]journalRecord, error) {
	data, err := a.readDropping(logical, droppingJournal)
	if err != nil {
		return nil, err
	}
	var recs []journalRecord
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// RecoveryAction reports what Recover did to one container.
type RecoveryAction string

const (
	// RecoveryClean: the dataset was committed; nothing to do.
	RecoveryClean RecoveryAction = "clean"
	// RecoverySwept: committed, but a leftover journal or staging
	// dropping from the post-commit window was removed.
	RecoverySwept RecoveryAction = "swept"
	// RecoveryCommitted: the crash landed after the journal's commit
	// record; the interrupted commit was replayed to completion.
	RecoveryCommitted RecoveryAction = "committed"
	// RecoveryRolledBack: the ingest never reached commit; the container
	// was removed.
	RecoveryRolledBack RecoveryAction = "rolledback"
	// RecoveryLive: a streaming ingest was killed mid-append; the staged
	// subsets were truncated back to the last journaled checkpoint and the
	// live head republished. The dataset remains live — ResumeLiveIngest
	// continues it, Seal finishes it.
	RecoveryLive RecoveryAction = "live"
)

// Recover classifies every container and repairs each interrupted ingest:
// committed datasets are left alone (stray staging state swept), ingests
// that journaled a commit record are replayed to completion, and everything
// else is rolled back. Call it once at startup before serving reads.
func (a *ADA) Recover() (map[string]RecoveryAction, error) {
	names, err := a.containers.ListContainers()
	if err != nil {
		return nil, err
	}
	out := make(map[string]RecoveryAction, len(names))
	for _, logical := range names {
		act, err := a.RecoverDataset(logical)
		if err != nil {
			return out, fmt.Errorf("core: recover %s: %w", logical, err)
		}
		out[logical] = act
	}
	return out, nil
}

// RecoverDataset runs crash recovery for one container.
func (a *ADA) RecoverDataset(logical string) (RecoveryAction, error) {
	if data, err := a.readDropping(logical, droppingManifest); err == nil {
		if _, err := unmarshalManifest(data); err == nil {
			return a.sweepCommitted(logical)
		}
	}
	recs, err := a.readJournal(logical)
	if err != nil || len(recs) == 0 {
		// No manifest and no usable journal: the crash landed before the
		// begin record became durable. Nothing is recoverable.
		return a.rollback(logical)
	}
	last := recs[len(recs)-1]
	if last.Type == journalCommit && last.Manifest != nil {
		return a.replayCommit(logical, &last)
	}
	if recs[0].Type == journalBegin && recs[0].Live {
		return a.recoverLive(logical, recs)
	}
	return a.rollback(logical)
}

func (a *ADA) rollback(logical string) (RecoveryAction, error) {
	if err := a.containers.RemoveContainer(logical); err != nil {
		return "", err
	}
	return RecoveryRolledBack, nil
}

// sweepCommitted removes post-commit leftovers from a dataset whose
// manifest already landed: the journal and stray staging droppings (an
// ingest's post-commit window, or a migration's staged copy), then the
// orphan files and dangling index entries a torn cross-backend
// ReplaceDropping leaves, and finally folds any migration that published
// but never rewrote the manifest back into the manifest's placement
// fields.
func (a *ADA) sweepCommitted(logical string) (RecoveryAction, error) {
	idx, err := a.containers.Index(logical)
	if err != nil {
		return "", err
	}
	swept := false
	for _, d := range idx {
		if d.Name == droppingJournal || strings.HasPrefix(d.Name, stagingPrefix) ||
			d.Name == liveHeadName || strings.HasPrefix(d.Name, liveIndexPrefix) {
			if err := a.containers.RemoveDropping(logical, d.Name); err != nil {
				return "", err
			}
			swept = true
		}
	}
	orphans, err := a.containers.SweepOrphans(logical)
	if err != nil {
		return "", err
	}
	if len(orphans) > 0 {
		swept = true
	}
	reconciled, err := a.reconcilePlacement(logical)
	if err != nil {
		return "", err
	}
	if reconciled {
		swept = true
	}
	if swept {
		return RecoverySwept, nil
	}
	return RecoveryClean, nil
}

// replayCommit finishes an interrupted commit idempotently: every staged
// dropping that has not yet reached its final name is renamed, the manifest
// is republished from the journal's commit record, and the journal retired.
func (a *ADA) replayCommit(logical string, rec *journalRecord) (RecoveryAction, error) {
	for _, name := range rec.Staged {
		if _, err := a.containers.StatDropping(logical, name); err == nil {
			continue // this rename already happened before the crash
		}
		if _, err := a.containers.StatDropping(logical, stagingPrefix+name); err != nil {
			// Neither staged nor final exists: the commit record promised
			// a dropping that is gone. Nothing trustworthy to publish.
			return a.rollback(logical)
		}
		if err := a.containers.RenameDropping(logical, stagingPrefix+name, name); err != nil {
			return "", err
		}
	}
	manifestBytes, err := rec.Manifest.marshal()
	if err != nil {
		return "", err
	}
	if err := a.writeDropping(logical, stagingPrefix+droppingManifest,
		a.backendFor(TagProtein), manifestBytes); err != nil {
		return "", err
	}
	if err := a.containers.RenameDropping(logical, stagingPrefix+droppingManifest, droppingManifest); err != nil {
		return "", err
	}
	if err := a.containers.RemoveDropping(logical, droppingJournal); err != nil {
		return "", err
	}
	// A sealed live dataset's head droppings die with the commit.
	if err := a.sweepLive(logical); err != nil {
		return "", err
	}
	return RecoveryCommitted, nil
}

// ResumeIngest continues an interrupted ingest from its last journaled
// checkpoint instead of rolling it back: the staged subsets are truncated
// to the checkpoint (dropping any unjournaled tail), their index builders
// and running checksums are reconstructed from the surviving bytes, the
// already-persisted frames are skipped on the source stream, and the
// ingest then runs to a normal atomic commit. pdbData and traj must be the
// same inputs the interrupted ingest was given.
func (a *ADA) ResumeIngest(logical string, pdbData []byte, traj io.Reader) (*IngestReport, error) {
	st, err := a.resumeStagedState(logical, pdbData, false)
	if err != nil {
		return nil, err
	}
	// Skip the frames the checkpoint already persisted, then ingest the
	// rest exactly like a one-shot ingest.
	tr := NewXTCTrajectory(traj)
	for i := 0; i < st.report.Frames; i++ {
		if _, _, err := tr.ReadFrame(); err != nil {
			st.closeAll()
			return nil, fmt.Errorf("core: resume %s: source ended at frame %d, checkpoint has %d: %w",
				logical, i, st.report.Frames, err)
		}
	}
	if _, err := st.run(tr, nil); err != nil {
		st.closeAll()
		return nil, err
	}
	st.closeAll()
	return st.finish()
}

// resumeStagedState rebuilds an interrupted ingest's in-memory state from
// its journal: the staged subsets truncated to the last checkpoint (see
// stagedPrefix), the subset writers reconstructed over the surviving bytes,
// the report counters restored, and the journal rewritten compactly.
// Shared by ResumeIngest (live=false) and ResumeLiveIngest (live=true); the
// begin record's Live flag must match, since the two sessions have
// different commit rules.
func (a *ADA) resumeStagedState(logical string, pdbData []byte, live bool) (*ingestState, error) {
	recs, err := a.readJournal(logical)
	if err != nil {
		return nil, fmt.Errorf("core: resume %s: no journal (nothing to resume): %w", logical, err)
	}
	begin, ck, err := resumePoint(recs)
	if err != nil {
		return nil, fmt.Errorf("core: resume %s: %w", logical, err)
	}
	if begin.Live != live {
		if live {
			return nil, fmt.Errorf("core: resume %s: not a live ingest; use ResumeIngest", logical)
		}
		return nil, fmt.Errorf("core: resume %s: live ingest; use ResumeLiveIngest", logical)
	}
	st, err := a.analyzeIngest(logical, pdbData)
	if err != nil {
		return nil, err
	}
	if st.structure.NAtoms() != begin.NAtoms {
		return nil, fmt.Errorf("core: resume %s: structure has %d atoms, journal began with %d",
			logical, st.structure.NAtoms(), begin.NAtoms)
	}
	tags := sortedTags(st.tagRanges)
	if len(tags) != len(begin.Tags) {
		return nil, fmt.Errorf("core: resume %s: categorization yields %d tags, journal began with %d",
			logical, len(tags), len(begin.Tags))
	}
	for i, tag := range tags {
		if begin.Tags[i].Tag != tag || begin.Tags[i].Ranges != st.tagRanges[tag].String() {
			return nil, fmt.Errorf("core: resume %s: tag %q does not match the journaled ingest", logical, tag)
		}
	}

	// Rebuild each subset writer over the checkpointed prefix of its
	// staged dropping.
	fail := func(err error) (*ingestState, error) {
		st.closeAll()
		return nil, fmt.Errorf("core: resume %s: %w", logical, err)
	}
	for _, tag := range tags {
		prefix, err := a.stagedPrefix(logical, tag, ck.Subsets[tag], ck.Frames)
		if err != nil {
			return fail(fmt.Errorf("subset %s: %w", tag, err))
		}
		be := a.backendFor(tag)
		f, err := a.containers.CreateDropping(logical, stagingPrefix+subsetPrefix+tag, be)
		if err != nil {
			return fail(err)
		}
		if len(prefix.data) > 0 {
			if _, err := f.Write(prefix.data); err != nil {
				f.Close()
				return fail(fmt.Errorf("subset %s: %w", tag, err))
			}
		}
		tee := &crcTee{f: f, enabled: !a.opts.DisableChecksums, total: prefix.crc}
		st.writers = append(st.writers, &subsetWriter{
			tag:     tag,
			backend: be,
			file:    f,
			tee:     tee,
			w:       xtc.NewRawWriter(tee),
			indices: st.tagRanges[tag].Indices(),
			natoms:  st.tagRanges[tag].Count(),
			ib:      prefix.ib,
			base:    int64(len(prefix.data)),
		})
		st.staged = append(st.staged, subsetPrefix+tag)
	}
	st.report.Frames = ck.Frames
	st.report.Compressed = ck.Compressed
	st.report.Raw = ck.Raw
	st.ckptFrames = ck.Frames
	if st.journal, err = a.rewriteJournal(logical, &begin, &ck); err != nil {
		return fail(err)
	}
	return st, nil
}

// resumePoint returns an uncommitted ingest journal's begin record and its
// last checkpoint (a zero checkpoint when none landed: the ingest restarts
// from frame 0).
func resumePoint(recs []journalRecord) (begin, ck journalRecord, err error) {
	if len(recs) == 0 || recs[0].Type != journalBegin {
		return begin, ck, fmt.Errorf("journal has no begin record; run Recover")
	}
	ck = journalRecord{Type: journalCkpt}
	for _, rec := range recs[1:] {
		switch rec.Type {
		case journalCkpt:
			ck = rec
		case journalCommit:
			return begin, ck, fmt.Errorf("ingest already committed; run Recover")
		}
	}
	return recs[0], ck, nil
}

// stagedSubset is a staged subset dropping cut back to a checkpoint.
type stagedSubset struct {
	data []byte           // the checkpointed prefix
	crc  uint32           // its CRC32C (0 with checksums disabled)
	ib   xtc.IndexBuilder // its frame index, ready to extend
}

// stagedPrefix reads tag's staged subset dropping and cuts it back to the
// checkpoint mark: the dropping must hold at least mark.Bytes, the prefix
// must match the journaled CRC, and it must index to exactly frames
// frames. A dropping the crash predates is an empty prefix when the mark
// is zero. Bytes past the mark are the unjournaled tail and are dropped.
func (a *ADA) stagedPrefix(logical, tag string, mark journalSubset, frames int) (*stagedSubset, error) {
	data, err := a.readDropping(logical, stagingPrefix+subsetPrefix+tag)
	if err != nil && (mark.Bytes != 0 || !errors.Is(err, vfs.ErrNotExist)) {
		return nil, err
	}
	if int64(len(data)) < mark.Bytes {
		// The journal promised bytes that never became durable: the
		// backend lies about write ordering. Nothing trustworthy.
		return nil, fmt.Errorf("staged dropping is %d bytes, checkpoint says %d: %w",
			len(data), mark.Bytes, vfs.ErrCorrupted)
	}
	sp := &stagedSubset{data: data[:mark.Bytes]}
	withCRC := !a.opts.DisableChecksums
	if withCRC {
		sp.crc = xtc.CRC32C(sp.data)
		if mark.CRC != 0 && sp.crc != mark.CRC {
			return nil, fmt.Errorf("checkpointed prefix fails its checksum: %w", vfs.ErrCorrupted)
		}
	}
	if len(sp.data) == 0 {
		return sp, nil
	}
	idx, err := xtc.BuildIndexChecksummed(bytes.NewReader(sp.data), int64(len(sp.data)))
	if err != nil {
		return nil, err
	}
	if idx.Frames() != frames {
		return nil, fmt.Errorf("prefix holds %d frames, checkpoint says %d: %w",
			idx.Frames(), frames, vfs.ErrCorrupted)
	}
	for i := 0; i < idx.Frames(); i++ {
		if withCRC {
			sp.ib.AddWithCRC(idx.Size(i), idx.NAtoms(i), idx.CRC(i))
		} else {
			sp.ib.Add(idx.Size(i), idx.NAtoms(i))
		}
	}
	return sp, nil
}

// rewriteJournal replaces a container's journal with its compact form: the
// begin record plus the checkpoint being resumed from (none at frame 0).
func (a *ADA) rewriteJournal(logical string, begin, ck *journalRecord) (*journalWriter, error) {
	j, err := a.openJournal(logical)
	if err != nil {
		return nil, err
	}
	if err := j.append(begin); err != nil {
		j.close()
		return nil, err
	}
	if ck.Frames > 0 {
		if err := j.append(ck); err != nil {
			j.close()
			return nil, err
		}
	}
	return j, nil
}
