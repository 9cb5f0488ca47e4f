package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"haccrg/internal/gpu"
	"haccrg/internal/kernels"
	"haccrg/internal/staticrace"
)

// goldenSim is a simulated job's expected output.
type goldenSim struct {
	Digest     string `json:"digest"`
	Races      int    `json:"races"`
	Cycles     int64  `json:"cycles"`
	WarpInstrs int64  `json:"warp_instrs"`
}

// goldenAnalyze is an analyze job's expected output.
type goldenAnalyze struct {
	Findings  int    `json:"findings"`
	Witnesses int    `json:"witnesses"`
	ReportSHA string `json:"report_sha"`
}

// goldenSet holds every job's expected output, recorded in process
// with harness.ExecContext and staticrace. Regenerate it with
// -write-golden only when a change is meant to alter findings or
// simulated cycles.
type goldenSet struct {
	Sim     map[string]goldenSim     `json:"sim"`
	Analyze map[string]goldenAnalyze `json:"analyze"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// analyzeKey is one static-analysis job: a program (benchmark and
// injection variant) at scale 1 under a pair of tracking granularities.
type analyzeKey struct {
	Bench   string
	Variant string
	SG, GG  int
}

func (a analyzeKey) String() string {
	v := a.Variant
	if v == "" {
		v = "clean"
	}
	return fmt.Sprintf("analyze/%s/%s/g%d-%d", a.Bench, v, a.SG, a.GG)
}

// analyzeGranularities are the (shared, global) granularity pairs of
// the analyze pool; each pair is a distinct cache key for the daemon.
// Each daemon-mix cycle submits the 51 programs under one pair; a
// 25-second run on a 2-core host completes five or six cycles.
var analyzeGranularities = [][2]int{
	{16, 4}, {32, 4}, {64, 4}, {128, 4},
	{16, 8}, {32, 8}, {64, 8}, {128, 8},
	{16, 16}, {32, 16}, {64, 16}, {128, 16},
}

// daemonWarmup is daemon-mix's warm-up analyze spec: outside the pool,
// so the warm-up leaves every pool spec uncached.
var daemonWarmup = analyzeKey{Bench: "hash", SG: 16, GG: 32}

// analyzePool lists every distinct analyze job daemon-mix may submit.
func analyzePool() []analyzeKey {
	var out []analyzeKey
	for _, g := range analyzeGranularities {
		for _, b := range kernels.All() {
			for _, v := range programs(b) {
				out = append(out, analyzeKey{Bench: b.Name, Variant: v, SG: g[0], GG: g[1]})
			}
		}
	}
	return out
}

// analyzeInProcess computes what the daemon's analyze job returns for
// a, the way the daemon does: build the kernels on the Table I device,
// analyze each, and render the suite report. It also returns the time
// spent in staticrace.
func analyzeInProcess(a analyzeKey) (goldenAnalyze, time.Duration, error) {
	cfg := gpu.DefaultConfig()
	bm := kernels.Get(a.Bench)
	if bm == nil {
		return goldenAnalyze{}, 0, fmt.Errorf("unknown benchmark %q", a.Bench)
	}
	dev, err := gpu.NewDevice(cfg, bm.GlobalBytes(1), nil)
	if err != nil {
		return goldenAnalyze{}, 0, err
	}
	k := jobKey{Bench: a.Bench, Variant: a.Variant, Scale: 1}
	plan, err := bm.Build(dev, k.params())
	if err != nil {
		return goldenAnalyze{}, 0, err
	}
	t := time.Now()
	conf := staticrace.Config{WarpSize: cfg.WarpSize, WarpAware: true, SharedGranularity: a.SG, GlobalGranularity: a.GG}
	var as []*staticrace.Analysis
	for _, kern := range plan.Kernels {
		an, err := staticrace.Analyze(kern, conf)
		if err != nil {
			return goldenAnalyze{}, 0, err
		}
		as = append(as, an)
	}
	rep := staticrace.BuildReport(as, true)
	spent := time.Since(t)
	sha, err := reportSHA([]byte(rep.JSON()))
	if err != nil {
		return goldenAnalyze{}, 0, err
	}
	return goldenAnalyze{Findings: rep.Findings, Witnesses: rep.Witnesses, ReportSHA: sha}, spent, nil
}

// reportSHA fingerprints a report's JSON independent of indentation
// (the daemon re-indents the report it embeds in a job status).
func reportSHA(raw []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return "", err
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:12]), nil
}

// writeGolden records every job's output at the current commit.
func writeGolden(path string) error {
	ctx := context.Background()
	g := goldenSet{Sim: map[string]goldenSim{}, Analyze: map[string]goldenAnalyze{}}
	var keys []jobKey
	for _, w := range workloads {
		if w.pass != nil {
			keys = append(keys, w.pass()...)
		}
	}
	// filter-check's findings must equal the unfiltered run's.
	for _, k := range filterPass() {
		k.Mode = modeSG
		keys = append(keys, k)
	}
	for _, k := range keys {
		k.Record = false
		if _, ok := g.Sim[k.goldenKey()]; ok {
			continue
		}
		r, err := execJob(ctx, k, "", false)
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		g.Sim[k.goldenKey()] = goldenSim{Digest: r.Digest, Races: r.Races, Cycles: r.Cycles, WarpInstrs: r.Stats.WarpInstrs}
	}
	for _, a := range append(analyzePool(), daemonWarmup) {
		ga, _, err := analyzeInProcess(a)
		if err != nil {
			return fmt.Errorf("%s: %w", a, err)
		}
		g.Analyze[a.String()] = ga
	}
	out, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
