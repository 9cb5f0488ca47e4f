package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"haccrg/internal/core"
	"haccrg/internal/gpu"
	"haccrg/internal/harness"
	"haccrg/internal/journal"
	"haccrg/internal/kernels"
)

// Detection modes a simulated job runs under.
const (
	modeOff      = "off"
	modeSG       = "sg"        // shared+global RDUs, serial engines
	modeSGFilter = "sg-filter" // shared+global with the static filter
)

// jobKey names one distinct simulated program run: a benchmark, its
// race-injection variant ("" for the clean build), the detection mode
// and the input scale. Findings and cycles are a pure function of it.
type jobKey struct {
	Bench   string
	Variant string
	Mode    string
	Scale   int
	Record  bool // record a journal to a file, then replay it
}

func (k jobKey) String() string {
	v := k.Variant
	if v == "" {
		v = "clean"
	}
	s := fmt.Sprintf("%s/%s/%s/s%d", k.Bench, v, k.Mode, k.Scale)
	if k.Record {
		s += "/record"
	}
	return s
}

// goldenKey is the key the expected outputs are stored under. A
// recorded run must find exactly what the unrecorded run finds, so
// both share one entry.
func (k jobKey) goldenKey() string {
	k.Record = false
	return k.String()
}

// runConfig is the harness configuration of a key. The sharded RDU
// engines stay off, as in the library facade's default.
func (k jobKey) runConfig() harness.RunConfig {
	rc := harness.RunConfig{
		Bench:                k.Bench,
		Detector:             harness.DetSharedGlobal,
		Scale:                k.Scale,
		DetectParallel:       false,
		DetectParallelShared: false,
		StaticFilter:         k.Mode == modeSGFilter,
	}
	if k.Mode == modeOff {
		rc.Detector = harness.DetOff
	}
	if k.Variant != "" {
		rc.Inject = []string{k.Variant}
	}
	return rc
}

func (k jobKey) params() kernels.Params {
	p := kernels.Params{Scale: k.Scale}
	if k.Variant != "" {
		p.Inject = map[string]bool{k.Variant: true}
	}
	return p
}

// digestOf hashes a findings list in canonical (sorted) order, so the
// daemon's, the replay's and the in-process renderings compare equal.
func digestOf(races []string) string {
	s := append([]string(nil), races...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:12])
}

func raceStrings(rs []*core.Race) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

// jobResult is what one executed job produced and what it cost.
type jobResult struct {
	Key    jobKey
	Wall   time.Duration
	Digest string
	Races  int
	Cycles int64
	Stats  *gpu.LaunchStats
	// DetStats is the RDU engine's check and report counters.
	DetStats core.Stats

	// Record-replay jobs only.
	JournalBytes int64
	JournalSHA   string
	ReplayEvents int
	ReplayWall   time.Duration
	ReplayMatch  bool
	ReplayDigest string
}

// execJob runs one job through the program's own job core,
// harness.ExecContext, with no instrumentation beyond a wall clock.
// Record jobs journal to a file in dir as `haccrg -record` does and
// then replay that file into a fresh serial detector; hashJournal
// also fingerprints the journal bytes as the replay reads them.
func execJob(ctx context.Context, k jobKey, dir string, hashJournal bool) (*jobResult, error) {
	start := time.Now()
	rc := k.runConfig()
	var (
		xo   harness.ExecOptions
		fw   *journal.FileWriter
		path string
		err  error
	)
	if k.Record {
		path = filepath.Join(dir, "job.journal")
		if fw, err = journal.CreateFile(nil, path); err != nil {
			return nil, err
		}
		xo.Record = fw
	}
	res, err := harness.ExecContext(ctx, rc, xo)
	if fw != nil {
		if cerr := fw.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("closing journal: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	out := &jobResult{
		Key: k, Digest: digestOf(raceStrings(res.Races)), Races: len(res.Races),
		Cycles: res.Stats.Cycles, Stats: res.Stats, DetStats: res.DetectorStats,
	}
	if k.Record {
		rstart := time.Now()
		if err := replayFile(k, path, out, nil, hashJournal); err != nil {
			return nil, err
		}
		out.ReplayWall = time.Since(rstart)
	}
	out.Wall = time.Since(start)
	return out, nil
}

// replayFile replays a recorded journal into a fresh serial detector
// of the key's configuration and fills the replay fields of out. tr,
// when non-nil, times the detector and the file reader.
func replayFile(k jobKey, path string, out *jobResult, tr *replayTrace, hashJournal bool) error {
	det, err := harness.DetectorFor(k.runConfig())
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	out.JournalBytes = st.Size()
	var (
		src  io.Reader = f
		hash           = sha256.New()
		res  *journal.ReplayResult
	)
	if hashJournal {
		src = io.TeeReader(f, hash)
	}
	if tr != nil {
		tr.reader.r = src
		tr.det.inner = det
		t := time.Now()
		res, err = journal.Replay(&tr.reader, &tr.det)
		tr.total = time.Since(t)
	} else {
		res, err = journal.Replay(src, det)
	}
	if err != nil {
		return fmt.Errorf("replaying %s: %w", k, err)
	}
	if hashJournal {
		out.JournalSHA = hex.EncodeToString(hash.Sum(nil)[:12])
	}
	out.ReplayEvents = res.MemEvents
	out.ReplayMatch = res.Match
	out.ReplayDigest = digestOf(res.Replayed)
	return nil
}
